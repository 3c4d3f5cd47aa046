package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/lake"
	"seagull/internal/timeseries"
)

// snapCfg is a small, deterministic geometry for snapshot tests.
func snapCfg() Config {
	return Config{
		Interval: 5 * time.Minute,
		Epoch:    time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC),
		Slots:    4 * 288, // four days
	}
}

// shardSnapshots serializes g the way Durability's per-shard writer does: one
// complete, self-validating snapshot stream per populated shard.
func shardSnapshots(g *Ingestor) [][]byte {
	var out [][]byte
	for i := range g.sh {
		sh := &g.sh[i]
		sh.mu.RLock()
		if len(sh.rings) > 0 {
			out = append(out, appendShardSnapshot(nil, &g.cfg, sh))
		}
		sh.mu.RUnlock()
	}
	return out
}

// restoreShards restores every shard stream into h.
func restoreShards(t *testing.T, h *Ingestor, snaps [][]byte) {
	t.Helper()
	for i, snap := range snaps {
		if err := h.RestoreSnapshot(bytes.NewReader(snap)); err != nil {
			t.Fatalf("restore shard stream %d: %v", i, err)
		}
	}
}

// feed appends a deterministic messy workload: several servers, shuffled
// arrival order, duplicates, gaps and a mid-stream window slide.
func feed(t *testing.T, g *Ingestor, seed int64) []string {
	t.Helper()
	cfg := snapCfg()
	rng := rand.New(rand.NewSource(seed))
	servers := []string{"srv-a", "srv-b", "srv-c", "srv-long-name-d"}
	for si, id := range servers {
		n := 600 + 100*si
		order := rng.Perm(n)
		for _, i := range order {
			if i%17 == 0 {
				continue // leave gaps
			}
			ts := cfg.Epoch.Add(time.Duration(i) * cfg.Interval)
			v := 20 + 10*math.Sin(float64(i)/29) + float64(si)
			g.Append(id, ts, v)
			if i%13 == 0 {
				g.Append(id, ts, v+99) // duplicate: first write must win
			}
		}
		// Slide the window forward well past the ring capacity for one
		// server, so eviction and shift paths are exercised.
		if si == 1 {
			for i := 0; i < 200; i++ {
				ts := cfg.Epoch.Add(time.Duration(5*288+i) * cfg.Interval)
				g.Append(id, ts, 50+float64(i%7))
			}
		}
	}
	return servers
}

// TestSnapshotRestoreEquivalence is the tentpole pin: ingest → snapshot →
// restart (fresh ingestor) → restore → forecast is bit-identical to the
// uninterrupted run, including appends that continue after the restore.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	cfg := snapCfg()
	uninterrupted := newIngestor(cfg, 4)
	restarted := newIngestor(cfg, 4)
	servers := feed(t, uninterrupted, 42)

	restoreShards(t, restarted, shardSnapshots(uninterrupted))

	// Post-restart traffic lands on both: late out-of-order points, fresh
	// points, duplicates of pre-snapshot slots.
	for _, g := range []*Ingestor{uninterrupted, restarted} {
		for _, id := range servers {
			for i := 550; i < 900; i += 3 {
				ts := cfg.Epoch.Add(time.Duration(i) * cfg.Interval)
				st := g.Append(id, ts, 30+float64(i%11))
				_ = st
			}
		}
	}

	for _, id := range servers {
		a, okA := uninterrupted.View(id)
		b, okB := restarted.View(id)
		if okA != okB {
			t.Fatalf("%s: view ok %v vs %v", id, okA, okB)
		}
		if !okA {
			continue
		}
		if !a.Start.Equal(b.Start) || a.Interval != b.Interval || a.Len() != b.Len() {
			t.Fatalf("%s: view shape (%s, %v, %d) vs (%s, %v, %d)",
				id, a.Start, a.Interval, a.Len(), b.Start, b.Interval, b.Len())
		}
		for i := range a.Values {
			av, bv := a.Values[i], b.Values[i]
			if math.Float64bits(av) != math.Float64bits(bv) && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("%s: values[%d] = %v vs %v", id, i, av, bv)
			}
		}

		// The pin the stream layer promises: forecasts from the restored
		// window are bit-identical to the uninterrupted run's.
		fa := forecastFromView(t, a)
		fb := forecastFromView(t, b)
		for i := range fa.Values {
			if math.Float64bits(fa.Values[i]) != math.Float64bits(fb.Values[i]) {
				t.Fatalf("%s: forecast[%d] = %v vs %v", id, i, fa.Values[i], fb.Values[i])
			}
		}
	}
}

func forecastFromView(t *testing.T, live timeseries.Series) timeseries.Series {
	t.Helper()
	m, err := forecast.New(forecast.NameSSA, 1)
	if err != nil {
		t.Fatal(err)
	}
	filled := live.FillGaps()
	if err := m.Train(filled); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(filled.PointsPerDay())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSnapshotGeometryMismatch: a snapshot from a different ring geometry is
// refused rather than aliased onto the wrong slot grid.
func TestSnapshotGeometryMismatch(t *testing.T) {
	g := newIngestor(snapCfg(), 4)
	feed(t, g, 7)
	other := snapCfg()
	other.Interval = time.Minute
	h := newIngestor(other, 4)
	for _, snap := range shardSnapshots(g) {
		if err := h.RestoreSnapshot(bytes.NewReader(snap)); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("err = %v, want ErrSnapshotFormat", err)
		}
	}
	if st := h.Stats(); st.Servers != 0 {
		t.Fatalf("mismatched restore installed %d servers", st.Servers)
	}
}

// TestSnapshotCorruption: truncations at every boundary and bit flips all
// fail cleanly with ErrSnapshotFormat and leave the ingestor untouched — a
// damaged snapshot means a cold start, never a panic or a half-restore.
func TestSnapshotCorruption(t *testing.T) {
	g := newIngestor(snapCfg(), 4)
	feed(t, g, 11)
	snaps := shardSnapshots(g)
	if len(snaps) < 2 {
		t.Fatalf("feed populated %d shards; the per-shard cases need several", len(snaps))
	}
	for si, whole := range snaps {
		cuts := []int{0, 3, len(snapshotMagic), len(snapshotMagic) + 10, len(whole) / 2, len(whole) - 5, len(whole) - 1}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("shard-%d/truncate-%d", si, cut), func(t *testing.T) {
				h := newIngestor(snapCfg(), 4)
				err := h.RestoreSnapshot(bytes.NewReader(whole[:cut]))
				if !errors.Is(err, ErrSnapshotFormat) {
					t.Fatalf("err = %v, want ErrSnapshotFormat", err)
				}
				if st := h.Stats(); st.Servers != 0 {
					t.Fatalf("truncated restore installed %d servers", st.Servers)
				}
			})
		}

		// Flip one byte in the middle of the records: the CRC must catch it
		// (or the structural validation, whichever trips first).
		t.Run(fmt.Sprintf("shard-%d/bitflip", si), func(t *testing.T) {
			flipped := append([]byte(nil), whole...)
			flipped[len(flipped)/2] ^= 0x40
			h := newIngestor(snapCfg(), 4)
			if err := h.RestoreSnapshot(bytes.NewReader(flipped)); !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("err = %v, want ErrSnapshotFormat", err)
			}
			if st := h.Stats(); st.Servers != 0 {
				t.Fatalf("corrupt restore installed %d servers", st.Servers)
			}
		})
	}
}

// TestSnapshotLiveRingWins: restoring over an ingestor that already has live
// telemetry for a server keeps the live ring.
func TestSnapshotLiveRingWins(t *testing.T) {
	cfg := snapCfg()
	g := newIngestor(cfg, 4)
	feed(t, g, 3)

	h := newIngestor(cfg, 4)
	ts := cfg.Epoch.Add(1000 * cfg.Interval)
	h.Append("srv-a", ts, 77)
	restoreShards(t, h, shardSnapshots(g))
	v, ok := h.View("srv-a")
	if !ok {
		t.Fatal("no view for srv-a")
	}
	if v.Len() != 1 || v.Values[0] != 77 {
		t.Fatalf("live ring was replaced by the snapshot: view len %d", v.Len())
	}
	// Other servers came in from the snapshot.
	if _, ok := h.View("srv-b"); !ok {
		t.Fatal("snapshot servers missing after restore")
	}
}

// TestSnapshotLakeRoundTrip exercises the lake glue the way a drain-only
// deployment runs it: Durability with no snapshot ticker writes the shard
// snapshots on drain, Recover restores them, and a first boot over an empty
// lake recovers nothing and reports no failure.
func TestSnapshotLakeRoundTrip(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := snapCfg()
	drainOnly := DurabilityConfig{SnapshotEvery: -1}
	g := newIngestor(cfg, 4)
	d := NewDurability(g, store, drainOnly)

	rec, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotShards != 0 || rec.Servers != 0 || rec.Degraded() {
		t.Fatalf("first boot recovered %+v, want nothing and no failures", rec)
	}
	if err := d.Open(); err != nil {
		t.Fatal(err)
	}

	feed(t, g, 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	h := newIngestor(cfg, 4)
	rec, err = NewDurability(h, store, drainOnly).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotShards != len(shardSnapshots(g)) || rec.Servers != len(g.Servers()) || rec.Degraded() {
		t.Fatalf("recovered %+v, want %d shard snapshots and %d servers", rec, len(shardSnapshots(g)), len(g.Servers()))
	}
	want, _ := g.View("srv-c")
	got, ok := h.View("srv-c")
	if !ok || got.Len() != want.Len() {
		t.Fatalf("restored view len %d, want %d", got.Len(), want.Len())
	}
}
