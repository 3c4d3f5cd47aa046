package stream

import (
	"context"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/simclock"
)

// saturate fills a refresher's queue and then forces n rejected enqueues
// (distinct jobs, so none coalesce).
func saturate(t *testing.T, r *Refresher, n int) {
	t.Helper()
	for r.Stats().Pending < refreshQueueSize {
		if ok, err := r.Enqueue("region", "filler", r.Stats().Pending); !ok || err != nil {
			t.Fatalf("filler enqueue: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := r.Enqueue("region", "srv", 100_000+i); err != ErrQueueFull {
			t.Fatalf("enqueue %d: err=%v, want ErrQueueFull", i, err)
		}
	}
}

func TestRefresherSaturatedNeedsSustainedDrops(t *testing.T) {
	r := NewRefresher(nil, nil, nil, nil, RefreshConfig{})
	if r.Saturated() {
		t.Fatal("fresh refresher reads saturated")
	}
	// One drop short of the sustained threshold.
	saturate(t, r, saturationDrops-1)
	if r.Saturated() {
		t.Fatalf("saturated after %d drops, threshold is %d", saturationDrops-1, saturationDrops)
	}
	// The next drop completes the window.
	if _, err := r.Enqueue("region", "srv", 999_999); err != ErrQueueFull {
		t.Fatalf("enqueue: %v, want ErrQueueFull", err)
	}
	if !r.Saturated() {
		t.Fatalf("not saturated after %d drops within the window", saturationDrops)
	}
	if got := r.Stats().Dropped; got != saturationDrops {
		t.Fatalf("Dropped = %d, want %d", got, saturationDrops)
	}
}

func TestRefresherSaturationClearsWithWindow(t *testing.T) {
	clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
	r := NewRefresher(nil, nil, nil, nil, RefreshConfig{Clock: clock})
	saturate(t, r, saturationDrops)
	if !r.Saturated() {
		t.Fatal("not saturated after a drop burst")
	}
	clock.Advance(saturationWindow)
	if !r.Saturated() {
		t.Fatal("saturation cleared while the burst is still inside the window")
	}
	clock.Advance(time.Millisecond)
	if r.Saturated() {
		t.Fatal("saturation never cleared after the window slid past")
	}
}

func TestSweeperPausesWhileRefresherSaturated(t *testing.T) {
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRefresher(nil, db, nil, nil, RefreshConfig{})
	sw := NewSweeper(db, nil, ref, SweeperConfig{})

	// Unsaturated: the round runs (no summaries → zero regions, no error).
	if err := sw.SweepOnce(context.Background()); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if st := sw.Stats(); st.Ticks != 1 || st.Paused != 0 {
		t.Fatalf("stats = %+v, want 1 tick, 0 paused", st)
	}

	// Saturated: rounds are skipped and counted.
	saturate(t, ref, saturationDrops)
	for i := 0; i < 3; i++ {
		if err := sw.SweepOnce(context.Background()); err != nil {
			t.Fatalf("paused sweep: %v", err)
		}
	}
	st := sw.Stats()
	if st.Paused != 3 {
		t.Fatalf("Paused = %d, want 3", st.Paused)
	}
	if st.Ticks != 1 {
		t.Fatalf("Ticks = %d, want 1 (paused rounds are not ticks)", st.Ticks)
	}
}
