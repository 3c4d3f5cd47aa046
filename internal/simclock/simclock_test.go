package simclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNowAndAdvance(t *testing.T) {
	s := NewSimulated(t0)
	if !s.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", s.Now(), t0)
	}
	s.Advance(time.Hour)
	if !s.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("Now = %v after Advance(1h)", s.Now())
	}
	s.AdvanceTo(t0) // backwards: no-op
	if !s.Now().Equal(t0.Add(time.Hour)) {
		t.Fatal("AdvanceTo must not move time backwards")
	}
}

func TestSimulatedAfterFiresInOrder(t *testing.T) {
	s := NewSimulated(t0)
	a := s.After(2 * time.Minute)
	b := s.After(time.Minute)
	s.Advance(time.Hour)
	// Both fired; each carries the simulated time it was due at.
	if at := <-b; !at.Equal(t0.Add(time.Minute)) {
		t.Fatalf("b fired at %v", at)
	}
	if at := <-a; !at.Equal(t0.Add(2 * time.Minute)) {
		t.Fatalf("a fired at %v", at)
	}
	// Non-positive delay fires immediately.
	select {
	case <-s.After(0):
	default:
		t.Fatal("After(0) must be immediately ready")
	}
}

func TestSimulatedTickerCoalesces(t *testing.T) {
	s := NewSimulated(t0)
	tk := s.NewTicker(time.Second)
	defer tk.Stop()
	// Cross 10 intervals without draining: exactly one tick is pending.
	s.Advance(10 * time.Second)
	<-tk.C()
	select {
	case <-tk.C():
		t.Fatal("ticks must coalesce, not queue")
	default:
	}
	// Draining between advances sees every tick.
	s.Advance(time.Second)
	if at := <-tk.C(); !at.Equal(t0.Add(11 * time.Second)) {
		t.Fatalf("tick at %v", at)
	}
}

func TestSimulatedTickerStop(t *testing.T) {
	s := NewSimulated(t0)
	tk := s.NewTicker(time.Second)
	tk.Stop()
	s.Advance(time.Minute)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker fired")
	default:
	}
	if n := s.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d after Stop", n)
	}
}

func TestSimulatedSleepWakesOnAdvance(t *testing.T) {
	s := NewSimulated(t0)
	done := make(chan error, 1)
	go func() { done <- s.Sleep(context.Background(), time.Minute) }()
	s.BlockUntil(1)
	if n := s.Sleepers(); n != 1 {
		t.Fatalf("Sleepers = %d", n)
	}
	s.Advance(time.Minute)
	if err := <-done; err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if n := s.Waiters(); n != 0 {
		t.Fatalf("Waiters = %d after wake", n)
	}
}

func TestSimulatedSleepHonorsContext(t *testing.T) {
	s := NewSimulated(t0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Sleep(ctx, time.Hour) }()
	s.BlockUntil(1)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
}

func TestSimulatedAutoAdvanceSleeps(t *testing.T) {
	s := NewSimulated(t0)
	s.AutoAdvanceSleeps()
	if err := s.Sleep(context.Background(), 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	if !s.Now().Equal(t0.Add(3 * time.Hour)) {
		t.Fatalf("auto sleep did not advance: %v", s.Now())
	}
}

func TestSimulatedDeterministicFiringOrder(t *testing.T) {
	// Two timers due at the same instant fire in registration order, every
	// run — the property the harness's bit-identical timelines rest on.
	for run := 0; run < 20; run++ {
		s := NewSimulated(t0)
		var mu sync.Mutex
		var order []string
		var wg sync.WaitGroup
		for _, name := range []string{"a", "b", "c"} {
			ch := s.After(time.Minute)
			wg.Add(1)
			go func(name string, ch <-chan time.Time) {
				defer wg.Done()
				<-ch
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}(name, ch)
		}
		// All three one-shot channels are buffered: firing order is the
		// channel-send order inside Advance. Here we just check all fire and
		// none are lost.
		s.Advance(time.Minute)
		wg.Wait()
		if len(order) != 3 {
			t.Fatalf("run %d: fired %d timers, want 3", run, len(order))
		}
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Or(nil)
	if c != Wall {
		t.Fatal("Or(nil) must be the wall clock")
	}
	if got := Or(c); got != c {
		t.Fatal("Or(c) must return c")
	}
	before := time.Now()
	if c.Now().Before(before) {
		t.Fatal("wall clock went backwards")
	}
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	tk := c.NewTicker(time.Millisecond)
	<-tk.C()
	tk.Stop()
	if Since(c, before) <= 0 {
		t.Fatal("Since must be positive")
	}
}
