package stream_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/pipeline"
	"seagull/internal/simclock"
	"seagull/internal/stream"
)

// TestSweeperEndToEnd: with live telemetry running one server hot, a single
// background round — no client sweep clause anywhere — discovers the
// region's latest summarized week, flags the drifted server and queues it;
// draining the refresher republishes the doc.
func TestSweeperEndToEnd(t *testing.T) {
	f := newEqFixture(t, forecast.NamePersistentPrevDay)
	ctx := context.Background()

	// Find a server that does not drift naturally (same selection as the
	// partial-drift test) and run its backup day hot.
	clean := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, clean, "", zeroTime, zeroTime, 0)
	cleanRep, err := stream.NewDriftDetector(clean, f.db).Sweep(ctx, eqRegion, 1)
	if err != nil {
		t.Fatal(err)
	}
	naturally := map[string]bool{}
	for _, sd := range cleanRep.DriftedServers {
		naturally[sd.ServerID] = true
	}
	var target *pipeline.PredictionDoc
	for _, doc := range f.docs {
		if !naturally[doc.ServerID] {
			target = doc
			break
		}
	}
	if target == nil {
		t.Fatal("every server drifted naturally")
	}

	hot := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, hot, target.ServerID, target.BackupDay, target.BackupDay.Add(24*time.Hour), 40)
	det := stream.NewDriftDetector(hot, f.db)
	ref := stream.NewRefresher(hot, f.db, f.reg, newWarmPool(t, f), stream.RefreshConfig{Workers: 2})
	sw := stream.NewSweeper(f.db, det, ref, stream.SweeperConfig{})

	if err := sw.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := sw.Stats()
	if st.Ticks != 1 || st.Regions != 1 {
		t.Fatalf("sweeper stats = %+v, want 1 tick over 1 region", st)
	}
	if st.Drifted == 0 || st.Queued != st.Drifted || st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("sweeper stats = %+v, want every drifted server queued", st)
	}

	if err := ref.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	doc := f.storedDocs(t)[target.ServerID]
	if doc == nil || doc.Refreshes != 1 {
		t.Fatalf("hot server not refreshed by the background loop: %+v", doc)
	}

	// A second round over unchanged telemetry re-finds the naturally drifted
	// servers (refresh does not change their actuals) but the loop stays
	// stable: nothing errors, queue drains again.
	if err := sw.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := sw.Stats(); st.Ticks != 2 || st.Errors != 0 {
		t.Fatalf("second round stats = %+v", st)
	}
}

// TestSweeperDiscoversLatestWeek: discovery picks each region's most recent
// summarized week and ignores regions without summaries or malformed ids.
func TestSweeperDiscoversLatestWeek(t *testing.T) {
	f := newEqFixture(t, forecast.NamePersistentPrevDay)
	ing := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, ing, "", zeroTime, zeroTime, 0)
	det := stream.NewDriftDetector(ing, f.db)
	sw := stream.NewSweeper(f.db, det, nil, stream.SweeperConfig{})

	// Plant decoys: a malformed id in the real region, a summary-free region
	// (partition exists in predictions only), and an extra region whose only
	// summary points at a week with no predictions (sweep finds 0 checked —
	// not an error).
	sums := f.db.Collection("summaries")
	if err := sums.Upsert(eqRegion, "not-a-week", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.db.Collection("predictions").Upsert("ghost", "srv/week-0009", map[string]int{}); err != nil {
		t.Fatal(err)
	}
	if err := sums.Upsert("empty", "week-0003", map[string]int{}); err != nil {
		t.Fatal(err)
	}

	if err := sw.SweepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sw.Stats()
	// Both summarized regions swept; the ghost (no summaries) skipped.
	if st.Regions != 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 regions swept cleanly", st)
	}
	// ref == nil: drift counted, nothing queued.
	if st.Queued != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want monitoring-only sweeps to queue nothing", st)
	}
}

// TestSweeperRunStops: Run ticks on its clock's ticker in the background and
// stops on cancel. The simulated clock makes the test deterministic: each
// Advance crosses exactly one interval, and no real time is slept.
func TestSweeperRunStops(t *testing.T) {
	f := newEqFixture(t, forecast.NamePersistentPrevDay)
	ing := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, ing, "", zeroTime, zeroTime, 0)
	det := stream.NewDriftDetector(ing, f.db)
	clock := simclock.NewSimulated(f.start)
	sw := stream.NewSweeper(f.db, det, nil, stream.SweeperConfig{Interval: time.Minute, Clock: clock})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()
	clock.BlockUntil(1) // Run's ticker is registered
	for tick := uint64(1); tick <= 2; tick++ {
		clock.Advance(time.Minute)
		// The tick is delivered asynchronously; wait for the sweep to land.
		deadline := time.Now().Add(5 * time.Second)
		for sw.Stats().Ticks < tick && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
	if sw.Stats().Ticks < 2 {
		t.Fatalf("background Run ticked %d times, want ≥ 2", sw.Stats().Ticks)
	}
}
