package simclock

import (
	"context"
	"sync"
	"time"
)

// Simulated is a manually advanced Clock. Time only moves when Advance or
// AdvanceTo move it; timers and tickers due at or before the
// new time fire in timestamp order (ties broken by registration order), so a
// given sequence of advances produces exactly one firing order — the
// property the simulation harness's bit-identical-timeline guarantee rests
// on.
//
// Waiters() and BlockUntil() expose how many goroutines are parked on the
// clock, letting tests advance only once the code under test is actually
// waiting, without real sleeps.
type Simulated struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	timers  []*simTimer
	waiters int // goroutines parked in Sleep
	// waitCh is closed and replaced whenever waiters or timers change, so
	// BlockUntil can wait without polling.
	waitCh chan struct{}
	// autoSleep makes Sleep advance the clock by d instead of parking —
	// "run as fast as possible" mode for components that pace themselves
	// with Sleep (the pipeline cron).
	autoSleep bool
}

// NewSimulated returns a simulated clock reading t.
func NewSimulated(t time.Time) *Simulated {
	return &Simulated{now: t, waitCh: make(chan struct{})}
}

// AutoAdvanceSleeps makes Sleep advance the clock immediately instead of
// blocking until another goroutine advances it. Tickers and After timers
// due within the slept span still fire in order.
func (s *Simulated) AutoAdvanceSleeps() {
	s.mu.Lock()
	s.autoSleep = true
	s.mu.Unlock()
}

type simTimer struct {
	at     time.Time
	seq    uint64
	period time.Duration // 0 for one-shot
	ch     chan time.Time
	// sleeper timers count toward Waiters while a goroutine is parked on
	// them; After timers do not (nothing is necessarily receiving).
	sleeper bool
	stopped bool
}

// Now returns the current simulated time.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep parks the calling goroutine until the clock advances past d (or ctx
// is done). In AutoAdvanceSleeps mode it advances the clock itself and
// returns immediately.
func (s *Simulated) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	s.mu.Lock()
	if s.autoSleep {
		target := s.now.Add(d)
		s.advanceLocked(target)
		s.mu.Unlock()
		return nil
	}
	t := s.addTimerLocked(d, 0, true)
	s.waiters++
	s.notifyLocked()
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		s.waiters--
		t.stopped = true
		s.removeLocked(t)
		s.notifyLocked()
		s.mu.Unlock()
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.ch:
		return nil
	}
}

// After returns a capacity-1 channel that receives the simulated time once
// the clock has advanced past d.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- s.now
		return ch
	}
	t := s.addTimerLocked(d, 0, false)
	s.notifyLocked()
	return t.ch
}

// NewTicker returns a simulated ticker firing every d of simulated time.
// Ticks a slow receiver misses are coalesced, as with time.Ticker.
func (s *Simulated) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker interval")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.addTimerLocked(d, d, false)
	s.notifyLocked()
	return &simTicker{clock: s, t: t}
}

type simTicker struct {
	clock *Simulated
	t     *simTimer
}

func (st *simTicker) C() <-chan time.Time { return st.t.ch }

func (st *simTicker) Stop() {
	st.clock.mu.Lock()
	st.t.stopped = true
	st.clock.removeLocked(st.t)
	st.clock.notifyLocked()
	st.clock.mu.Unlock()
}

// Advance moves the clock forward by d, firing every timer and ticker due
// in the crossed span in timestamp order.
func (s *Simulated) Advance(d time.Duration) {
	s.mu.Lock()
	s.advanceLocked(s.now.Add(d))
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to t (no-op if t is not after now).
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	s.advanceLocked(t)
	s.mu.Unlock()
}

// Waiters reports how many goroutines are currently parked in Sleep plus
// pending After timers and live tickers — i.e. how many things an Advance
// could wake.
func (s *Simulated) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// Sleepers reports only goroutines parked in Sleep.
func (s *Simulated) Sleepers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// BlockUntil returns once at least n timers/tickers/sleepers are registered
// on the clock. Tests use it to advance only after the code under test has
// started waiting.
func (s *Simulated) BlockUntil(n int) {
	for {
		s.mu.Lock()
		if len(s.timers) >= n {
			s.mu.Unlock()
			return
		}
		ch := s.waitCh
		s.mu.Unlock()
		<-ch
	}
}

// --- internals (all require s.mu held) ---

func (s *Simulated) addTimerLocked(d, period time.Duration, sleeper bool) *simTimer {
	s.seq++
	t := &simTimer{at: s.now.Add(d), seq: s.seq, period: period, ch: make(chan time.Time, 1), sleeper: sleeper}
	s.timers = append(s.timers, t)
	return t
}

func (s *Simulated) removeLocked(t *simTimer) {
	for i, o := range s.timers {
		if o == t {
			s.timers = append(s.timers[:i], s.timers[i+1:]...)
			return
		}
	}
}

func (s *Simulated) notifyLocked() {
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

// earliestLocked returns the due-soonest timer, ties broken by seq.
func (s *Simulated) earliestLocked() *simTimer {
	var best *simTimer
	for _, t := range s.timers {
		if best == nil || t.at.Before(best.at) || (t.at.Equal(best.at) && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

func (s *Simulated) advanceLocked(target time.Time) {
	if !target.After(s.now) {
		return
	}
	for {
		t := s.earliestLocked()
		if t == nil || t.at.After(target) {
			break
		}
		s.now = t.at
		// Coalescing send: drop the tick if the receiver hasn't drained the
		// last one, matching time.Ticker semantics. One-shot timers always
		// land (fresh capacity-1 channel).
		select {
		case t.ch <- s.now:
		default:
		}
		if t.period > 0 {
			t.at = t.at.Add(t.period)
		} else {
			s.removeLocked(t)
		}
	}
	s.now = target
	s.notifyLocked()
}
