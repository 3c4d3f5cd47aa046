package seagull_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"seagull"
	"seagull/internal/serving"
	"seagull/internal/stream"
)

// TestSystemStreaming drives the streaming loop through the public facade:
// batch pipeline → live ingest → drift sweep over HTTP → background
// refresher → refreshed stored prediction.
func TestSystemStreaming(t *testing.T) {
	start := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	sys, err := seagull.NewSystem(seagull.SystemConfig{
		DataDir: t.TempDir(),
		Stream:  seagull.StreamConfig{Epoch: start},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "live", Servers: 8, Weeks: 2, Seed: 5})
	if _, err := sys.LoadFleet(fleet); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWeek(seagull.PipelineConfig{Region: "live", Week: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	c := seagull.NewClient(srv.URL)
	stored, err := c.Predictions(context.Background(), "live", 1)
	if err != nil {
		t.Fatal(err)
	}
	preds := stored.Predictions
	if len(preds) == 0 {
		t.Fatal("no stored predictions")
	}

	// Feed every server's true telemetry through System.Ingest, running one
	// server's backup day 45 points hot so it drifts.
	hotID := preds[0].ServerID
	hotDay := preds[0].BackupDay
	for _, srv := range fleet.Servers {
		load := srv.Load()
		for i := 0; i < load.Len(); i++ {
			v := load.Values[i]
			if v != v { // missing
				continue
			}
			at := load.TimeAt(i)
			if srv.ID == hotID && !at.Before(hotDay) && at.Before(hotDay.Add(24*time.Hour)) {
				v += 45
			}
			sys.Ingest(srv.ID, at, v)
		}
	}
	if st := sys.Stream().Stats(); st.Appended == 0 || st.Servers != 8 {
		t.Fatalf("ingest stats = %+v", st)
	}

	stop := sys.StartRefresher()
	defer stop()

	// Sweep over the HTTP surface the Handler wires up.
	resp, err := c.Ingest(context.Background(), serving.IngestRequest{
		Points: []serving.IngestPoint{{ServerID: hotID, TimeUnix: hotDay.Add(25 * time.Hour).Unix(), Value: 30}},
		Sweep:  &serving.SweepSpec{Region: "live", Week: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sweep == nil || resp.Sweep.Drifted == 0 || resp.Sweep.Queued == 0 {
		t.Fatalf("sweep = %+v, want the hot server flagged and queued", resp.Sweep)
	}
	found := false
	for _, id := range resp.Sweep.Servers {
		if id == hotID {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot server %s missing from drifted set %v", hotID, resp.Sweep.Servers)
	}

	// The background worker drains the queue.
	deadline := time.Now().Add(10 * time.Second)
	for sys.Refresher().Stats().Refreshed < uint64(resp.Sweep.Queued) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := sys.Refresher().Stats()
	if st.Refreshed < uint64(resp.Sweep.Queued) || st.Failed != 0 {
		t.Fatalf("refresher stats = %+v, want %d refreshed", st, resp.Sweep.Queued)
	}

	// /varz shows the full operational picture through the facade handler.
	vz, err := c.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Ingest == nil || vz.Drift == nil || vz.Refresh == nil {
		t.Fatalf("varz stream sections missing: %+v", vz)
	}
	if vz.Drift.Sweeps != 1 || vz.Refresh.Refreshed != uint64(st.Refreshed) {
		t.Fatalf("varz drift/refresh = %+v / %+v", vz.Drift, vz.Refresh)
	}

	// StartRefresher is idempotent while running; stop is safe twice.
	stop2 := sys.StartRefresher()
	stop2()
	stop2()
}

// TestStreamAliases pins the facade re-exports.
func TestStreamAliases(t *testing.T) {
	var _ *seagull.Ingestor = stream.NewIngestor(stream.Config{})
	var _ seagull.StreamConfig = stream.Config{}
	var _ seagull.DriftReport = stream.Report{}
	var _ seagull.AppendStatus = stream.Appended
	var _ *seagull.Sweeper = stream.NewSweeper(nil, nil, nil, stream.SweeperConfig{})
	var _ seagull.SweeperConfig = stream.SweeperConfig{}
	var _ seagull.RefreshConfig = stream.RefreshConfig{}
}

// TestSystemSnapshotRoundTrip drives the durability seam through the facade
// in its simplest deployment — no WAL, snapshots only on drain: ingest into
// one System, let Durability.Close write the ring snapshots on its way down,
// recover them in a second System over the same data dir, and observe
// identical live windows.
func TestSystemSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	start := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	cfg := seagull.SystemConfig{DataDir: dir, Stream: seagull.StreamConfig{Epoch: start}}

	drainOnly := seagull.DurabilityConfig{SnapshotEvery: -1}

	sys1, err := seagull.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur1 := sys1.NewDurability(drainOnly)
	if err := dur1.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sys1.Ingest("s1", start.Add(time.Duration(i)*5*time.Minute), float64(10+i%9))
	}
	want, ok := sys1.Stream().View("s1")
	if !ok {
		t.Fatal("no live view before shutdown")
	}
	wantVals := append([]float64(nil), want.Values...)
	if err := dur1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := seagull.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	rec, err := sys2.NewDurability(drainOnly).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotShards != 1 || rec.Servers != 1 || rec.Degraded() {
		t.Fatalf("recovered %+v, want one shard snapshot holding one server", rec)
	}
	got, ok := sys2.Stream().View("s1")
	if !ok {
		t.Fatal("no live view after restore")
	}
	if !got.Start.Equal(want.Start) || got.Len() != len(wantVals) {
		t.Fatalf("restored view (%s, %d) vs (%s, %d)", got.Start, got.Len(), want.Start, len(wantVals))
	}
	for i := range wantVals {
		if got.Values[i] != wantVals[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got.Values[i], wantVals[i])
		}
	}

	// A fresh system over an empty dir reports the first-boot case.
	sys3, err := seagull.NewSystem(seagull.SystemConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys3.Close()
	rec, err = sys3.NewDurability(drainOnly).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotShards != 0 || rec.Servers != 0 || rec.Degraded() {
		t.Fatalf("recover on first boot = %+v, want nothing restored and no failures", rec)
	}
}

// TestSystemSweeper drives the background sweeper through the facade:
// StartSweeper finds the drifted server from the stored summaries with no
// client sweep anywhere, and Close stops the loop.
func TestSystemSweeper(t *testing.T) {
	start := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	sys, err := seagull.NewSystem(seagull.SystemConfig{
		Stream: seagull.StreamConfig{Epoch: start},
		Sweep:  seagull.SweeperConfig{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "auto", Servers: 6, Weeks: 2, Seed: 9})
	if _, err := sys.LoadFleet(fleet); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWeek(seagull.PipelineConfig{Region: "auto", Week: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	c := seagull.NewClient(srv.URL)
	stored, err := c.Predictions(context.Background(), "auto", 1)
	if err != nil || len(stored.Predictions) == 0 {
		t.Fatalf("predictions: %v", err)
	}
	hot := stored.Predictions[0]
	for i := 0; i < 8*288; i++ {
		at := hot.BackupDay.Add(time.Duration(i-7*288) * 5 * time.Minute)
		v := 25.0
		if i >= 7*288 {
			v = hot.Values[i-7*288] + 45
		}
		sys.Ingest(hot.ServerID, at, v)
	}

	stopRef := sys.StartRefresher()
	defer stopRef()
	stopSweep := sys.StartSweeper()
	defer stopSweep()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := sys.Sweeper().Stats()
		if st.Ticks >= 1 && st.Drifted >= 1 && sys.Refresher().Stats().Refreshed >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := sys.Sweeper().Stats()
	if st.Drifted == 0 || st.Queued == 0 || st.Errors != 0 {
		t.Fatalf("sweeper stats = %+v, want the hot server found and queued", st)
	}
	// /varz carries the sweeper section through the facade handler.
	vz, err := c.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Sweeper == nil || vz.Sweeper.Ticks == 0 {
		t.Fatalf("varz sweeper = %+v", vz.Sweeper)
	}
	// Idempotent start, double stop safe.
	stop2 := sys.StartSweeper()
	stop2()
	stop2()
}
