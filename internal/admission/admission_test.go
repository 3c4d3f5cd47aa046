package admission

import (
	"context"
	"sync"
	"testing"
	"time"

	"seagull/internal/simclock"
)

// hold admits n requests and returns their tickets (failing the test when
// any is not admitted).
func hold(t *testing.T, ep *Endpoint, n int) []Ticket {
	t.Helper()
	out := make([]Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, res := ep.Acquire(context.Background(), false)
		if res.Verdict != Admitted {
			t.Fatalf("acquire %d: verdict %v, want Admitted", i, res.Verdict)
		}
		out = append(out, tk)
	}
	return out
}

func TestFastPathAdmitsUnderLimit(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 4})
	ep := l.Endpoint("a", Predict, 0)
	tickets := hold(t, ep, 4)
	if got := l.InFlight(); got != 4 {
		t.Fatalf("InFlight = %d, want 4", got)
	}
	for _, tk := range tickets {
		tk.Release()
	}
	if got := l.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	st := l.Stats()
	if st.Endpoints["a"].Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", st.Endpoints["a"].Admitted)
	}
}

// acquireAsync starts an Acquire on its own goroutine and returns channels
// carrying the outcome.
func acquireAsync(ctx context.Context, ep *Endpoint, allowDegrade bool) (<-chan Ticket, <-chan Result) {
	tc := make(chan Ticket, 1)
	rc := make(chan Result, 1)
	go func() {
		tk, res := ep.Acquire(ctx, allowDegrade)
		tc <- tk
		rc <- res
	}()
	return tc, rc
}

func TestQueueGrantsInPriorityOrder(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 8})
	bg := l.Endpoint("bg", Background, 0)
	pr := l.Endpoint("pr", Predict, 0)

	blocker := hold(t, pr, 1)

	// Queue a background waiter first, then a predict waiter.
	bgT, bgR := acquireAsync(context.Background(), bg, false)
	waitQueued(t, l, 1)
	prT, prR := acquireAsync(context.Background(), pr, false)
	waitQueued(t, l, 2)

	// Freeing the slot must grant the predict waiter despite its later
	// arrival: strict class priority.
	blocker[0].Release()
	res := <-prR
	if res.Verdict != Admitted {
		t.Fatalf("predict verdict %v, want Admitted", res.Verdict)
	}
	(<-prT).Release()
	if res := <-bgR; res.Verdict != Admitted {
		t.Fatalf("background verdict %v, want Admitted", res.Verdict)
	}
	(<-bgT).Release()
}

// waitQueued polls until the limiter reports n queued waiters.
func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		q := l.queued
		l.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, q)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFullQueueShedsWithRetryAfter(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 1})
	ep := l.Endpoint("p", Predict, 0)
	tickets := hold(t, ep, 1)
	defer func() {
		for _, tk := range tickets {
			tk.Release()
		}
	}()
	_, _ = acquireAsync(context.Background(), ep, false)
	waitQueued(t, l, 1)

	_, res := ep.Acquire(context.Background(), false)
	if res.Verdict != Shed {
		t.Fatalf("verdict %v, want Shed", res.Verdict)
	}
	if res.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s (wire carries whole delta-seconds)", res.RetryAfter)
	}
	st := l.Stats()
	if st.Sheds == 0 || st.Endpoints["p"].Shed == 0 {
		t.Fatalf("shed counters not incremented: %+v", st)
	}
}

func TestHigherClassEvictsLowestWaiter(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 1})
	bg := l.Endpoint("bg", Background, 0)
	pr := l.Endpoint("pr", Predict, 0)
	blocker := hold(t, pr, 1)

	_, bgR := acquireAsync(context.Background(), bg, false)
	waitQueued(t, l, 1)

	// The queue is full of background traffic; an arriving predict evicts it.
	prT, prR := acquireAsync(context.Background(), pr, false)
	res := <-bgR
	if res.Verdict != Shed {
		t.Fatalf("evicted background verdict %v, want Shed", res.Verdict)
	}
	if res.RetryAfter <= 0 {
		t.Fatalf("evicted waiter carries no RetryAfter")
	}
	blocker[0].Release()
	if res := <-prR; res.Verdict != Admitted {
		t.Fatalf("predict verdict %v, want Admitted", res.Verdict)
	}
	(<-prT).Release()
	st := l.Stats()
	if st.Evictions != 1 || st.Endpoints["bg"].Evicted != 1 {
		t.Fatalf("eviction counters wrong: %+v", st)
	}
}

func TestBackgroundCannotEvictPredict(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 1})
	bg := l.Endpoint("bg", Background, 0)
	pr := l.Endpoint("pr", Predict, 0)
	blocker := hold(t, pr, 1)
	defer blocker[0].Release()

	_, _ = acquireAsync(context.Background(), pr, false)
	waitQueued(t, l, 1)

	_, res := bg.Acquire(context.Background(), false)
	if res.Verdict != Shed {
		t.Fatalf("verdict %v, want Shed (no lower-priority waiter to evict)", res.Verdict)
	}
	if got := l.Stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
}

func TestDeadlineRejectedOnArrival(t *testing.T) {
	// Target 1s seeds the service-time estimate at 100ms; a 5ms deadline
	// cannot cover it, so the request is rejected before queueing.
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 8, Target: time.Second})
	ep := l.Endpoint("p", Predict, 0)
	blocker := hold(t, ep, 1)
	defer blocker[0].Release()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, res := ep.Acquire(ctx, false)
	if res.Verdict != ShedDeadline {
		t.Fatalf("verdict %v, want ShedDeadline", res.Verdict)
	}
	if res.RetryAfter <= 0 {
		t.Fatal("deadline shed carries no RetryAfter")
	}
	if got := l.Stats().DeadlineRejects; got != 1 {
		t.Fatalf("DeadlineRejects = %d, want 1", got)
	}
}

func TestDeadlineRejectedAtGrant(t *testing.T) {
	// A queued waiter whose deadline expires while waiting must be rejected
	// when capacity frees, not executed. The 50ms deadline comfortably
	// covers the seeded estimate (target/10 = 1ms) at arrival.
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 8, Target: 10 * time.Millisecond})
	ep := l.Endpoint("p", Predict, 0)
	blocker := hold(t, ep, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, rc := acquireAsync(ctx, ep, false)
	waitQueued(t, l, 1)
	time.Sleep(60 * time.Millisecond) // let the waiter's deadline lapse
	blocker[0].Release()
	res := <-rc
	if res.Verdict != ShedDeadline && res.Verdict != Canceled {
		t.Fatalf("verdict %v, want ShedDeadline (or Canceled via ctx)", res.Verdict)
	}
	if got := l.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0 — expired waiter must not run", got)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 8})
	ep := l.Endpoint("p", Predict, 0)
	blocker := hold(t, ep, 1)

	ctx, cancel := context.WithCancel(context.Background())
	_, rc := acquireAsync(ctx, ep, false)
	waitQueued(t, l, 1)
	cancel()
	if res := <-rc; res.Verdict != Canceled {
		t.Fatalf("verdict %v, want Canceled", res.Verdict)
	}
	// The abandoned waiter must not absorb the freed slot.
	blocker[0].Release()
	tk, res := ep.Acquire(context.Background(), false)
	if res.Verdict != Admitted {
		t.Fatalf("post-cancel acquire verdict %v, want Admitted", res.Verdict)
	}
	tk.Release()
}

func TestAIMDDecreasesOnOverTargetAndRecovers(t *testing.T) {
	// The decrease cooldown equals the 1ms target, so every 3ms over-target
	// completion may decrease.
	l := NewLimiter(Config{MaxInflight: 16, Target: time.Millisecond})
	ep := l.Endpoint("p", Predict, 0)

	// Over-target completions walk the limit down multiplicatively.
	for i := 0; i < 20; i++ {
		tk, res := ep.Acquire(context.Background(), false)
		if res.Verdict != Admitted {
			t.Fatalf("acquire: %v", res.Verdict)
		}
		time.Sleep(3 * time.Millisecond) // 3x the 1ms target
		tk.Release()
	}
	low := l.Limit()
	if low >= 16 {
		t.Fatalf("limit = %.1f after sustained over-target latency, want < 16", low)
	}

	// On-target completions (fast, under 1ms) grow it back additively.
	for i := 0; i < 400 && l.Limit() < 15.5; i++ {
		tk, res := ep.Acquire(context.Background(), false)
		if res.Verdict != Admitted {
			t.Fatalf("acquire: %v", res.Verdict)
		}
		tk.Release()
	}
	if got := l.Limit(); got < 15.5 {
		t.Fatalf("limit = %.1f after fast completions, want recovered to ~16 (from %.1f)", got, low)
	}
}

func TestAIMDDecreaseCooldownBoundsCollapse(t *testing.T) {
	// The decrease cooldown is one Target: a burst of slow completions that
	// all land inside it counts as ONE congestion event, and the limit
	// decreases exactly once. The next burst, a Target later, is a second
	// event.
	clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
	l := NewLimiter(Config{MaxInflight: 16, Target: time.Second, Clock: clock})
	ep := l.Endpoint("p", Predict, 0)
	burst := func() {
		tickets := hold(t, ep, 10)
		clock.Advance(2 * time.Second) // every completion is over target
		for _, tk := range tickets {
			tk.Release()
		}
	}
	burst()
	want := 16 * 0.85
	if got := l.Limit(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("limit = %.2f, want exactly one 0.85 decrease (%.2f)", got, want)
	}
	burst()
	want *= 0.85
	if got := l.Limit(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("limit = %.2f after a second burst, want two 0.85 decreases (%.2f)", got, want)
	}
}

func TestBrownoutServesDegradedWhenSaturated(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 2, Brownout: true})
	ep := l.Endpoint("p", Predict, 0)
	blocker := hold(t, ep, 1)
	defer blocker[0].Release()
	_, _ = acquireAsync(context.Background(), ep, false)
	waitQueued(t, l, 1)

	// Saturated (limit exhausted + waiter behind it): a degradable request
	// is served the fallback instead of queueing behind the storm.
	_, res := ep.Acquire(context.Background(), true)
	if res.Verdict != Degraded {
		t.Fatalf("verdict %v, want Degraded", res.Verdict)
	}
	st := l.Stats()
	if st.Endpoints["p"].Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Endpoints["p"].Degraded)
	}
	if !st.Brownout || st.BrownoutEntries == 0 {
		t.Fatalf("brownout state not reported: %+v", st)
	}
	// A non-degradable request still queues/sheds normally (bounded here by
	// a deadline so the test doesn't wait behind the blocker).
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, res = ep.Acquire(ctx, false)
	if res.Verdict == Degraded {
		t.Fatal("non-degradable request must not be degraded")
	}
}

func TestBrownoutDisabledSheds(t *testing.T) {
	l := NewLimiter(Config{MaxInflight: 1, QueueCap: 1})
	ep := l.Endpoint("p", Predict, 0)
	blocker := hold(t, ep, 1)
	defer blocker[0].Release()
	_, _ = acquireAsync(context.Background(), ep, false)
	waitQueued(t, l, 1)

	_, res := ep.Acquire(context.Background(), true)
	if res.Verdict == Degraded {
		t.Fatal("brownout disabled: allowDegrade must not produce Degraded")
	}
}

func TestBrownoutExternalSaturationHook(t *testing.T) {
	var saturated bool
	var mu sync.Mutex
	l := NewLimiter(Config{
		MaxInflight: 8, Brownout: true,
		Saturated: func() bool { mu.Lock(); defer mu.Unlock(); return saturated },
	})
	if l.Brownout() {
		t.Fatal("brownout with idle limiter and clear hook")
	}
	mu.Lock()
	saturated = true
	mu.Unlock()
	if !l.Brownout() {
		t.Fatal("external saturation hook must enter brownout")
	}
	mu.Lock()
	saturated = false
	mu.Unlock()
	if l.Brownout() {
		t.Fatal("brownout must clear with the hook")
	}
	if got := l.Stats().BrownoutEntries; got != 1 {
		t.Fatalf("BrownoutEntries = %d, want 1", got)
	}
}

func TestConcurrentAcquireReleaseRace(t *testing.T) {
	// Hammer the limiter from many goroutines; run under -race in CI. The
	// invariant checked at the end: all slots returned, queue empty.
	l := NewLimiter(Config{MaxInflight: 4, QueueCap: 8})
	eps := []*Endpoint{
		l.Endpoint("p", Predict, 0),
		l.Endpoint("i", Ingest, 0),
		l.Endpoint("b", Background, 0),
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := eps[g%len(eps)]
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				tk, res := ep.Acquire(ctx, g%2 == 0)
				if res.Verdict == Admitted {
					tk.Release()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if got := l.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", got)
	}
	st := l.Stats()
	if st.InQueue != 0 {
		t.Fatalf("InQueue = %d after drain, want 0", st.InQueue)
	}
	var admitted uint64
	for _, e := range st.Endpoints {
		admitted += e.Admitted
	}
	if admitted == 0 {
		t.Fatal("nothing was admitted")
	}
}
