package stream

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"seagull/internal/simclock"
	"seagull/internal/timeseries"
)

var testEpoch = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func testConfig(slots int) Config {
	return Config{Interval: 5 * time.Minute, Epoch: testEpoch, Slots: slots}
}

type point struct {
	t time.Time
	v float64
}

// seriesOf reads a server's live window or fails the test.
func seriesOf(t *testing.T, g *Ingestor, id string) timeseries.Series {
	t.Helper()
	s, ok := g.View(id)
	if !ok {
		t.Fatalf("no live telemetry for %s", id)
	}
	return s
}

func sameSeries(a, b timeseries.Series) bool {
	if !a.Start.Equal(b.Start) || a.Interval != b.Interval || a.Len() != b.Len() {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestAppendOrderInvariance is the rollup property the subsystem is built
// on: a shuffled append stream with duplicated deliveries rolls up to a live
// window bit-identical to the sorted, exactly-once stream.
func TestAppendOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	pts := make([]point, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			continue // leave holes: unfilled slots must read as missing
		}
		pts = append(pts, point{
			t: testEpoch.Add(time.Duration(i) * 5 * time.Minute),
			v: 10 + 50*rng.Float64(),
		})
	}

	sorted := newIngestor(testConfig(4096), 4)
	for _, p := range pts {
		if st := sorted.Append("srv", p.t, p.v); st != Appended {
			t.Fatalf("sorted append at %s: %v", p.t, st)
		}
	}

	// Shuffle and duplicate ~30% of the deliveries.
	shuffled := append([]point(nil), pts...)
	for _, p := range pts {
		if rng.Float64() < 0.3 {
			shuffled = append(shuffled, p)
		}
	}
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	chaos := newIngestor(testConfig(4096), 4)
	for _, p := range shuffled {
		if st := chaos.Append("srv", p.t, p.v); st != Appended && st != Duplicate {
			t.Fatalf("shuffled append at %s: %v", p.t, st)
		}
	}

	a, b := seriesOf(t, sorted, "srv"), seriesOf(t, chaos, "srv")
	if !sameSeries(a, b) {
		t.Fatalf("shuffled+duplicated stream diverged:\nsorted   %v len %d\nshuffled %v len %d",
			a.Start, a.Len(), b.Start, b.Len())
	}
	st := chaos.Stats()
	if int(st.Appended) != len(pts) {
		t.Errorf("appended = %d, want %d", st.Appended, len(pts))
	}
	if int(st.Duplicates) != len(shuffled)-len(pts) {
		t.Errorf("duplicates = %d, want %d", st.Duplicates, len(shuffled)-len(pts))
	}
}

// TestAppendWindowEviction: old slots fall off as the head advances, and
// points behind the retained window are dropped as too old.
func TestAppendWindowEviction(t *testing.T) {
	const slots = 100
	g := newIngestor(testConfig(slots), 4)
	at := func(i int) time.Time { return testEpoch.Add(time.Duration(i) * 5 * time.Minute) }

	// Fill well past capacity, forcing several shifts.
	total := 5*slots + 17
	for i := 0; i < total; i++ {
		if st := g.Append("srv", at(i), float64(i)); st != Appended {
			t.Fatalf("append %d: %v", i, st)
		}
	}
	s := seriesOf(t, g, "srv")
	if s.Len() != slots {
		t.Fatalf("live window = %d slots, want %d", s.Len(), slots)
	}
	wantStart := at(total - slots)
	if !s.Start.Equal(wantStart) {
		t.Fatalf("window start = %v, want %v", s.Start, wantStart)
	}
	for i, v := range s.Values {
		if v != float64(total-slots+i) {
			t.Fatalf("slot %d = %v, want %v", i, v, float64(total-slots+i))
		}
	}

	// Behind the window: dropped.
	if st := g.Append("srv", at(total-slots-1), 1); st != TooOld {
		t.Errorf("stale point = %v, want TooOld", st)
	}
	// Before the epoch: dropped.
	if st := g.Append("srv", testEpoch.Add(-time.Minute), 1); st != TooOld {
		t.Errorf("pre-epoch point = %v, want TooOld", st)
	}
	// NaN and Inf: rejected.
	if st := g.Append("srv", at(total), math.NaN()); st != BadValue {
		t.Errorf("NaN = %v, want BadValue", st)
	}
	if st := g.Append("srv", at(total), math.Inf(1)); st != BadValue {
		t.Errorf("+Inf = %v, want BadValue", st)
	}
}

// TestAppendTooNew: a far-future point (a client posting milliseconds where
// seconds are expected, say) must be rejected before it slides the retained
// window into the future and turns every real point into a too-old drop.
func TestAppendTooNew(t *testing.T) {
	now := testEpoch.Add(7 * 24 * time.Hour)
	cfg := testConfig(500)
	cfg.Clock = simclock.NewSimulated(now)
	g := newIngestor(cfg, 4)

	for i := 0; i < 100; i++ {
		g.Append("srv", now.Add(time.Duration(i-100)*5*time.Minute), 20)
	}
	// A point 1000× in the future (the ms-for-s mistake).
	if st := g.Append("srv", testEpoch.Add(7000*24*time.Hour), 20); st != TooNew {
		t.Fatalf("far-future point = %v, want TooNew", st)
	}
	// The retained window is intact and present-time points still land.
	if s := seriesOf(t, g, "srv"); s.Len() != 100 {
		t.Fatalf("window damaged by rejected point: len=%d", s.Len())
	}
	if st := g.Append("srv", now, 21); st != Appended {
		t.Fatalf("present point after rejection = %v", st)
	}
	// Within the clock-skew allowance is fine.
	if st := g.Append("srv", now.Add(30*time.Minute), 22); st != Appended {
		t.Fatalf("near-future point = %v", st)
	}
	// The bound is inclusive at maxFuture.
	if st := g.Append("srv", now.Add(maxFuture), 23); st != Appended {
		t.Fatalf("point at the bound = %v", st)
	}
	if st := g.Append("srv", now.Add(maxFuture+5*time.Minute), 24); st != TooNew {
		t.Fatalf("point past the bound = %v, want TooNew", st)
	}
	if st := g.Stats(); st.TooNew != 2 {
		t.Fatalf("stats = %+v, want 2 too_new", st)
	}
}

// TestAppendForwardJump: a gap larger than the whole buffer abandons the old
// window and restarts cleanly at the new head.
func TestAppendForwardJump(t *testing.T) {
	const slots = 50
	g := newIngestor(testConfig(slots), 4)
	at := func(i int) time.Time { return testEpoch.Add(time.Duration(i) * 5 * time.Minute) }
	for i := 0; i < 10; i++ {
		g.Append("srv", at(i), float64(i))
	}
	jump := 10 * slots
	if st := g.Append("srv", at(jump), 99); st != Appended {
		t.Fatalf("jump append: %v", st)
	}
	s := seriesOf(t, g, "srv")
	if s.Len() != 1 || s.Values[0] != 99 || !s.Start.Equal(at(jump)) {
		t.Fatalf("after jump: len=%d start=%v values=%v", s.Len(), s.Start, s.Values)
	}
	// Out-of-order backfill within the new window still lands.
	if st := g.Append("srv", at(jump-slots+1), 7); st != Appended {
		t.Fatalf("backfill append: %v", st)
	}
	s = seriesOf(t, g, "srv")
	if s.Len() != slots || s.Values[0] != 7 {
		t.Fatalf("after backfill: len=%d first=%v", s.Len(), s.Values[0])
	}
}

// TestSnapshotMatchesView: the stable copy equals the zero-copy view and
// reuses the caller's buffer.
func TestSnapshotMatchesView(t *testing.T) {
	g := newIngestor(testConfig(500), 4)
	for i := 0; i < 300; i++ {
		if i%7 == 3 {
			continue
		}
		g.Append("srv", testEpoch.Add(time.Duration(i)*5*time.Minute), float64(i))
	}
	view := seriesOf(t, g, "srv")
	snap, ok := g.SnapshotInto("srv", nil)
	if !ok {
		t.Fatal("snapshot failed")
	}
	if !sameSeries(view, snap) {
		t.Fatal("snapshot differs from view")
	}
	// Reusing the returned buffer must not reallocate.
	buf := snap.Values
	snap2, _ := g.SnapshotInto("srv", buf)
	if &snap2.Values[0] != &buf[0] {
		t.Error("snapshot did not reuse the caller's buffer")
	}

	if _, ok := g.SnapshotInto("nope", nil); ok {
		t.Error("snapshot of unknown server succeeded")
	}
	if g.WithView("nope", func(timeseries.Series) {}) {
		t.Error("WithView of unknown server succeeded")
	}
}

// TestAppendSeries: batch appends skip missing observations and reject
// mismatched intervals at the caller (serving) layer; here the summary adds
// up.
func TestAppendSeries(t *testing.T) {
	g := newIngestor(testConfig(500), 4)
	vals := []float64{1, 2, timeseries.Missing, 4, 5}
	sum, err := g.AppendSeries("srv", testEpoch, vals)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != 4 || sum.Skipped != 1 {
		t.Fatalf("summary = %+v, want 4 appended / 1 skipped", sum)
	}
	// Replay: all duplicates.
	sum, _ = g.AppendSeries("srv", testEpoch, vals)
	if sum.Duplicates != 4 || sum.Appended != 0 {
		t.Fatalf("replay summary = %+v, want 4 duplicates", sum)
	}
	s := seriesOf(t, g, "srv")
	if s.Len() != 5 || !timeseries.IsMissing(s.Values[2]) || s.Values[3] != 4 {
		t.Fatalf("series = %v", s.Values)
	}
}

// TestConcurrentAppend hammers overlapping servers from several goroutines,
// half of them appending points and half short series, through a WAL buffer
// small enough that appenders flush it under contention; run under -race in
// CI. Totals must add up exactly: every delivery is either appended or a
// duplicate, and every appended point reaches the log once.
func TestConcurrentAppend(t *testing.T) {
	mem := newMemLog(testConfig(2048), 64, 0)
	g := mem.g
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const perWorker = 2000
	const workers = 8
	delivered := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			vals := make([]float64, 8)
			for i := 0; i < perWorker; i++ {
				id := ids[rng.Intn(len(ids))]
				slot := rng.Intn(1500)
				at := testEpoch.Add(time.Duration(slot) * 5 * time.Minute)
				if w%2 == 0 {
					g.Append(id, at, float64(slot))
					delivered[w]++
				} else {
					run := vals[:1+rng.Intn(len(vals))]
					for k := range run {
						run[k] = float64(slot + k)
					}
					if _, err := g.AppendSeries(id, at, run); err != nil {
						t.Error(err)
						return
					}
					delivered[w] += len(run)
				}
				if i%64 == 0 {
					g.WithView(id, func(live timeseries.Series) { _ = live.Len() })
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range delivered {
		total += n
	}
	st := g.Stats()
	if st.Appended+st.Duplicates != uint64(total) {
		t.Fatalf("appended %d + duplicates %d != %d deliveries",
			st.Appended, st.Duplicates, total)
	}
	logged, distinct := 0, map[walEntry]bool{}
	for i := range g.sh {
		for _, e := range append(mem.entries[i], g.sh[i].pend...) {
			logged++
			distinct[e] = true
		}
	}
	if uint64(logged) != st.Appended || len(distinct) != logged {
		t.Fatalf("%d points logged, %d of them distinct; %d appended", logged, len(distinct), st.Appended)
	}
	if st.Servers != len(ids) {
		t.Fatalf("servers = %d, want %d", st.Servers, len(ids))
	}
	if got := g.Servers(); len(got) != len(ids) {
		t.Fatalf("Servers() = %v", got)
	}
	// Every filled slot holds the value its slot index encodes, regardless
	// of which worker wrote it.
	for _, id := range ids {
		s := seriesOf(t, g, id)
		off := int(s.Start.Sub(testEpoch) / (5 * time.Minute))
		for i, v := range s.Values {
			if timeseries.IsMissing(v) {
				continue
			}
			if v != float64(off+i) {
				t.Fatalf("server %s slot %d = %v, want %v", id, off+i, v, float64(off+i))
			}
		}
	}
}
