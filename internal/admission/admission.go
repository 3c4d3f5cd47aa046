// Package admission is the serving layer's overload story: an adaptive
// concurrency limiter with a bounded priority queue, deadline-aware load
// shedding and a brownout signal for graceful degradation.
//
// The problem it solves is the one Seagull itself exists to solve for other
// services (Poppe et al., VLDB 2020): a process under a burst storm that
// admits every request queues unboundedly until latency collapses for
// *everyone*. Robust-provisioning work (Makridis et al.; Pace et al.) argues
// the same conclusion from the resource side — graceful, prioritized
// degradation beats open-loop admission. The limiter here closes that loop:
//
//   - Adaptive limit (AIMD, gradient-style). The concurrency limit rises
//     additively (+1/limit per completion, the TCP-style probe)
//     while observed request latency stays at or under the endpoint's target,
//     and falls multiplicatively (×0.85, at most once per cooldown)
//     when completions come in over target. The observed quantity includes
//     queue wait, so a growing queue pushes the limit down before clients
//     time out, and the normalized ratio latency/target lets endpoints with
//     very different service times share one limit.
//
//   - Bounded priority queue. Requests beyond the limit wait in a bounded
//     queue ordered by class (Predict > Ingest > Background; FIFO within a
//     class). A full queue sheds — and an arriving higher-class request
//     evicts the youngest waiter of the lowest class present, so under
//     overload the cheap-to-retry background traffic is shed first and
//     forecasts keep flowing.
//
//   - Deadline-aware shedding. A request whose propagated deadline cannot
//     cover the estimated queue wait plus service time is rejected on
//     arrival, and a queued request whose deadline has expired is rejected at
//     grant time — before any work is done on its behalf. Every shed carries
//     a computed Retry-After (estimated queue drain time), which the serving
//     client's retry loop and circuit breaker honor.
//
//   - Brownout. When the limiter is saturated (or an external backpressure
//     hook reports saturation, e.g. the stream refresher's sustained-drop
//     predicate), endpoints that registered a degraded fallback are told to
//     serve it instead of shedding: /v2/predict falls back to the cheap
//     persistent-model forecast, trading accuracy for availability.
//
// The accept fast path takes one mutex and allocates nothing; waiters
// allocate only on the queue path. The AdmissionAccept row of the root
// package's allocation ceilings pins the zero-alloc guarantee.
package admission

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/simclock"
)

// Class is a request's priority class. Lower values are more important:
// under overload, higher-valued classes are queued behind and shed before
// lower-valued ones. Liveness endpoints (health, readiness, varz) are never
// routed through the limiter at all — an operator must be able to observe an
// overloaded process.
type Class uint8

const (
	// Predict is forecast traffic — the service's reason to exist; shed last.
	Predict Class = iota
	// Ingest is telemetry writes — droppable under pressure because appends
	// are idempotent and clients re-send under their retry budget.
	Ingest
	// Background is advisory/introspection traffic (advise, models, stored
	// predictions) — cheapest to retry, shed first.
	Background

	numClasses
)

// String returns the class name used in stats.
func (c Class) String() string {
	switch c {
	case Predict:
		return "predict"
	case Ingest:
		return "ingest"
	case Background:
		return "background"
	default:
		return "unknown"
	}
}

// Verdict is the outcome of an admission decision.
type Verdict uint8

const (
	// Admitted: proceed; the caller holds a concurrency slot and must call
	// Endpoint.Release exactly once.
	Admitted Verdict = iota
	// Degraded: the limiter is saturated and this endpoint registered a
	// degraded fallback — serve the cheap path, outside the limit, and do
	// not call Release.
	Degraded
	// Shed: rejected (queue full, evicted, or deadline hopeless). Do no
	// work; respond with the retry hint. Do not call Release.
	Shed
	// ShedDeadline: rejected because the request's deadline cannot be met
	// (on arrival, while queued, or at grant time). Do not call Release.
	ShedDeadline
	// Canceled: the caller's context ended while waiting. Do not call
	// Release.
	Canceled
)

// String returns the verdict name used in logs.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Degraded:
		return "degraded"
	case Shed:
		return "shed"
	case ShedDeadline:
		return "shed_deadline"
	case Canceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// The AIMD constants. The adaptive limit starts open at MaxInflight and the
// first overload walks it down.
const (
	// minLimit is the floor the multiplicative decrease cannot cross.
	minLimit = 1
	// increasePerDone is the additive-increase numerator: each on-target
	// completion grows the limit by increasePerDone/limit, i.e. roughly +1
	// per limit-worth of completions.
	increasePerDone = 1.0
	// decreaseFactor is the multiplicative decrease applied when a
	// completion exceeds its target.
	decreaseFactor = 0.85
	// shedWindow is how long after a shed/eviction the limiter still reports
	// itself saturated (the brownout entry signal).
	shedWindow = time.Second
)

// Config parameterizes a Limiter. The zero value selects production
// defaults sized for one serving process.
type Config struct {
	// MaxInflight is the hard ceiling on concurrently admitted requests —
	// the value the adaptive limit can recover to. Default 64.
	MaxInflight int
	// Target is the default per-request latency target (queue wait plus
	// service) that drives the AIMD signal; Endpoint registration may
	// override it per endpoint. It is also the minimum spacing between two
	// multiplicative decreases. Default 500ms.
	Target time.Duration
	// QueueCap bounds the total waiters across all classes. Default
	// 2×MaxInflight.
	QueueCap int
	// Brownout enables the degraded-fallback verdict. Off, saturated
	// endpoints with a fallback shed like everyone else.
	Brownout bool
	// Saturated, when non-nil, is an external backpressure hook folded into
	// the brownout signal (the stream refresher's sustained-drop predicate).
	Saturated func() bool
	// Clock supplies the cooldown/shed-window timestamps; nil means the
	// wall clock. Simulations inject a compressed clock.
	Clock simclock.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.Target <= 0 {
		c.Target = 500 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 2 * c.MaxInflight
	}
	return c
}

// waiter state, guarded by the limiter mutex.
type waiterState uint8

const (
	waiting waiterState = iota
	granted
	shedded   // queue eviction or deadline rejection; verdict in w.verdict
	abandoned // caller's context ended; skipped at grant time
)

// waiter is one queued request.
type waiter struct {
	ep       *Endpoint
	deadline time.Time // zero: none
	enq      time.Time
	state    waiterState
	verdict  Verdict       // valid when state == shedded
	ready    chan struct{} // closed on grant/shed
}

// Limiter is the shared admission controller for one serving process: one
// adaptive concurrency limit, one bounded priority queue. Endpoints are
// registered once at wiring time and hand out per-request tickets. Safe for
// concurrent use.
type Limiter struct {
	cfg Config

	mu           sync.Mutex
	limit        float64
	inFlight     int
	queues       [numClasses][]*waiter // FIFO per class; head at index 0
	queued       int
	lastDecrease time.Time
	lastShed     time.Time

	endpoints   map[string]*Endpoint
	endpointsMu sync.Mutex

	sheds           atomic.Uint64
	evictions       atomic.Uint64
	deadlineRejects atomic.Uint64
	brownoutActive  atomic.Bool
	brownoutEntries atomic.Uint64
}

// NewLimiter builds a limiter from cfg.
func NewLimiter(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	cfg.Clock = simclock.Or(cfg.Clock)
	return &Limiter{
		cfg:       cfg,
		limit:     float64(cfg.MaxInflight),
		endpoints: map[string]*Endpoint{},
	}
}

// Endpoint registers (or returns the existing) named endpoint with its
// priority class and latency target (0 selects the limiter default). The
// returned handle is the per-request entry point.
func (l *Limiter) Endpoint(name string, class Class, target time.Duration) *Endpoint {
	if class >= numClasses {
		class = Background
	}
	if target <= 0 {
		target = l.cfg.Target
	}
	l.endpointsMu.Lock()
	defer l.endpointsMu.Unlock()
	if ep, ok := l.endpoints[name]; ok {
		return ep
	}
	ep := &Endpoint{l: l, name: name, class: class, target: target}
	// Seed the service-time estimate at a tenth of the target: optimistic
	// enough not to pre-reject early deadlines, real completions correct it
	// within a few requests.
	ep.estNs.Store(int64(target / 10))
	l.endpoints[name] = ep
	return ep
}

// Limit returns the current adaptive concurrency limit.
func (l *Limiter) Limit() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// InFlight returns the number of currently admitted requests.
func (l *Limiter) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inFlight
}

// saturatedLocked reports limiter-side saturation: the limit is exhausted
// with waiters behind it, the queue is half full, or a shed happened within
// the shed window. Callers hold l.mu.
func (l *Limiter) saturatedLocked(now time.Time) bool {
	if l.inFlight >= int(l.limit) && l.queued > 0 {
		return true
	}
	if l.queued >= l.cfg.QueueCap/2 {
		return true
	}
	return now.Sub(l.lastShed) < shedWindow
}

// Brownout reports whether degraded fallbacks should serve: brownout is
// enabled and either the limiter is saturated or the external backpressure
// hook says so. Transitions into brownout are counted for /varz.
func (l *Limiter) Brownout() bool {
	if !l.cfg.Brownout {
		return false
	}
	now := l.cfg.Clock.Now()
	l.mu.Lock()
	sat := l.saturatedLocked(now)
	l.mu.Unlock()
	if !sat && l.cfg.Saturated != nil {
		sat = l.cfg.Saturated()
	}
	if sat && !l.brownoutActive.Swap(true) {
		l.brownoutEntries.Add(1)
	} else if !sat {
		l.brownoutActive.Store(false)
	}
	return sat
}

// retryAfterLocked estimates when shed traffic should come back: the time
// for the current queue plus one more request to drain through the limit at
// the endpoint's estimated service time, clamped to [1s, 30s] (whole
// seconds — the wire carries delta-seconds). Callers hold l.mu.
func (l *Limiter) retryAfterLocked(ep *Endpoint) time.Duration {
	est := time.Duration(ep.estNs.Load())
	lim := l.limit
	if lim < 1 {
		lim = 1
	}
	drain := time.Duration(float64(l.queued+1) * float64(est) / lim)
	secs := int64(math.Ceil(drain.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// estWaitLocked estimates the queue wait a new arrival of class c would see:
// the waiters at or ahead of its class draining through the limit. Callers
// hold l.mu.
func (l *Limiter) estWaitLocked(c Class, est time.Duration) time.Duration {
	ahead := 0
	for cl := Class(0); cl <= c; cl++ {
		ahead += len(l.queues[cl])
	}
	lim := l.limit
	if lim < 1 {
		lim = 1
	}
	return time.Duration(float64(ahead) * float64(est) / lim)
}

// shedLocked records a shed and stamps the saturation window.
func (l *Limiter) shedLocked(now time.Time) {
	l.lastShed = now
	l.sheds.Add(1)
}

// grantNextLocked hands freed capacity to the highest-priority waiter whose
// deadline still holds. Callers hold l.mu.
func (l *Limiter) grantNextLocked(now time.Time) {
	for l.inFlight < int(l.limit) {
		w := l.popLocked(now)
		if w == nil {
			return
		}
		l.inFlight++
		w.state = granted
		close(w.ready)
	}
}

// popLocked removes and returns the next grantable waiter, discarding
// abandoned and deadline-expired entries along the way.
func (l *Limiter) popLocked(now time.Time) *waiter {
	for c := Class(0); c < numClasses; c++ {
		q := l.queues[c]
		for len(q) > 0 {
			w := q[0]
			q[0] = nil
			q = q[1:]
			l.queues[c] = q
			if w.state == abandoned {
				continue
			}
			l.queued--
			// Deadline-aware grant: a waiter that can no longer finish in
			// time is rejected before any work happens on its behalf.
			est := time.Duration(w.ep.estNs.Load())
			if !w.deadline.IsZero() && now.Add(est).After(w.deadline) {
				w.state = shedded
				w.verdict = ShedDeadline
				l.deadlineRejects.Add(1)
				w.ep.deadlineRejected.Add(1)
				l.shedLocked(now)
				close(w.ready)
				continue
			}
			return w
		}
	}
	return nil
}

// evictForLocked makes room for an arriving request of class c by evicting
// the youngest waiter of the lowest-priority class strictly below it.
// Returns false when no lower-priority waiter exists.
func (l *Limiter) evictForLocked(c Class, now time.Time) bool {
	for victim := numClasses - 1; victim > c; victim-- {
		q := l.queues[victim]
		if len(q) == 0 {
			continue
		}
		// Evict the youngest: it has the least sunk queue wait.
		for i := len(q) - 1; i >= 0; i-- {
			w := q[i]
			if w.state != waiting {
				continue
			}
			w.state = shedded
			w.verdict = Shed
			l.queues[victim] = append(q[:i], q[i+1:]...)
			l.queued--
			l.evictions.Add(1)
			w.ep.evicted.Add(1)
			l.shedLocked(now)
			close(w.ready)
			return true
		}
	}
	return false
}

// observe folds one completed request into the AIMD control loop.
// totalNs is queue wait plus service; serviceNs updates the endpoint's
// service-time estimate used for deadline math and Retry-After.
func (l *Limiter) observe(ep *Endpoint, totalNs, serviceNs int64, now time.Time) {
	// EWMA service-time estimate (α=1/4), updated without the limiter lock.
	for {
		old := ep.estNs.Load()
		next := old + (serviceNs-old)/4
		if next <= 0 {
			next = serviceNs
		}
		if ep.estNs.CompareAndSwap(old, next) {
			break
		}
	}
	over := totalNs > int64(ep.target)
	l.mu.Lock()
	if over {
		// Two multiplicative decreases are at least one default Target
		// apart, so one slow burst (whose completions all arrive over
		// target together) counts as one congestion event, not a collapse
		// to minLimit.
		if now.Sub(l.lastDecrease) >= l.cfg.Target {
			l.limit = max(l.limit*decreaseFactor, minLimit)
			l.lastDecrease = now
		}
	} else {
		l.limit = min(l.limit+increasePerDone/l.limit, float64(l.cfg.MaxInflight))
	}
	l.mu.Unlock()
}

// Endpoint is one named route's admission handle: it carries the route's
// priority class, latency target, service-time estimate and counters, and
// funnels requests into the shared limiter.
type Endpoint struct {
	l      *Limiter
	name   string
	class  Class
	target time.Duration

	estNs atomic.Int64 // EWMA service time

	admitted         atomic.Uint64
	queuedTotal      atomic.Uint64
	shed             atomic.Uint64
	evicted          atomic.Uint64
	deadlineRejected atomic.Uint64
	degraded         atomic.Uint64
	canceled         atomic.Uint64
}

// Name returns the endpoint's registered name.
func (ep *Endpoint) Name() string { return ep.name }

// Class returns the endpoint's priority class.
func (ep *Endpoint) Class() Class { return ep.class }

// Target returns the endpoint's latency target.
func (ep *Endpoint) Target() time.Duration { return ep.target }

// Ticket is an admitted request's release handle.
type Ticket struct {
	ep    *Endpoint
	start time.Time // Acquire entry (queue wait included)
	grant time.Time // slot grant (service time starts here)
}

// Result is an admission decision: the verdict plus, for sheds, the
// computed retry hint.
type Result struct {
	Verdict    Verdict
	RetryAfter time.Duration // set on Shed/ShedDeadline
}

// Acquire asks for a concurrency slot. allowDegrade marks requests whose
// endpoint can serve a degraded fallback (brownout); they are degraded
// instead of queued or shed while the limiter is saturated. The caller must
// call Release on the returned ticket iff the verdict is Admitted. Blocks
// while queued; ctx cancellation, eviction and deadline expiry unblock it.
func (ep *Endpoint) Acquire(ctx context.Context, allowDegrade bool) (Ticket, Result) {
	l := ep.l
	now := l.cfg.Clock.Now()
	deadline, hasDeadline := ctx.Deadline()

	l.mu.Lock()
	if l.inFlight < int(l.limit) && l.queued == 0 {
		// Fast path: capacity free and nobody waiting (queue order is
		// preserved by never jumping past waiters). Zero allocations.
		l.inFlight++
		l.mu.Unlock()
		ep.admitted.Add(1)
		return Ticket{ep: ep, start: now, grant: now}, Result{Verdict: Admitted}
	}

	// Saturated. Brownout fallback first: availability over accuracy.
	if allowDegrade && l.cfg.Brownout && l.saturatedLocked(now) {
		l.mu.Unlock()
		ep.degraded.Add(1)
		l.brownoutFold()
		return Ticket{}, Result{Verdict: Degraded}
	}

	est := time.Duration(ep.estNs.Load())
	// Deadline-aware arrival check: no point queueing a request that cannot
	// drain through the queue and still finish in time.
	if hasDeadline {
		if now.Add(l.estWaitLocked(ep.class, est)).Add(est).After(deadline) {
			retry := l.retryAfterLocked(ep)
			l.deadlineRejects.Add(1)
			l.shedLocked(now)
			l.mu.Unlock()
			ep.deadlineRejected.Add(1)
			return Ticket{}, Result{Verdict: ShedDeadline, RetryAfter: retry}
		}
	}
	if l.queued >= l.cfg.QueueCap {
		// Full queue: a higher-priority arrival evicts the youngest waiter
		// of the lowest class present; otherwise the arrival itself sheds.
		if !l.evictForLocked(ep.class, now) {
			retry := l.retryAfterLocked(ep)
			l.shedLocked(now)
			l.mu.Unlock()
			ep.shed.Add(1)
			return Ticket{}, Result{Verdict: Shed, RetryAfter: retry}
		}
	}
	w := &waiter{ep: ep, enq: now, ready: make(chan struct{})}
	if hasDeadline {
		w.deadline = deadline
	}
	l.queues[ep.class] = append(l.queues[ep.class], w)
	l.queued++
	// Capacity may have freed between the fast-path check and the enqueue
	// bookkeeping (another goroutine's Release saw an empty queue).
	l.grantNextLocked(now)
	l.mu.Unlock()
	ep.queuedTotal.Add(1)

	select {
	case <-w.ready:
	case <-ctx.Done():
		l.mu.Lock()
		if w.state == waiting {
			w.state = abandoned
			l.queued--
			l.mu.Unlock()
			ep.canceled.Add(1)
			return Ticket{}, Result{Verdict: Canceled}
		}
		// Granted or shed concurrently with the cancellation: fall through
		// and honor whichever the limiter decided.
		l.mu.Unlock()
		<-w.ready
	}
	switch w.state {
	case granted:
		grantedAt := l.cfg.Clock.Now()
		ep.admitted.Add(1)
		return Ticket{ep: ep, start: w.enq, grant: grantedAt}, Result{Verdict: Admitted}
	default: // shedded — counters were folded in at the shed site
		l.mu.Lock()
		retry := l.retryAfterLocked(ep)
		l.mu.Unlock()
		return Ticket{}, Result{Verdict: w.verdict, RetryAfter: retry}
	}
}

// brownoutFold updates the brownout transition counter outside the lock.
func (l *Limiter) brownoutFold() {
	if !l.brownoutActive.Swap(true) {
		l.brownoutEntries.Add(1)
	}
}

// Release returns an admitted request's slot and feeds its latency into the
// AIMD loop. Exactly one Release per Admitted verdict.
func (t Ticket) Release() {
	if t.ep == nil {
		return
	}
	l := t.ep.l
	now := l.cfg.Clock.Now()
	l.observe(t.ep, int64(now.Sub(t.start)), int64(now.Sub(t.grant)), now)
	l.mu.Lock()
	l.inFlight--
	l.grantNextLocked(now)
	l.mu.Unlock()
}

// EndpointStats is one endpoint's admission counters.
type EndpointStats struct {
	Class            string  `json:"class"`
	TargetMs         float64 `json:"target_ms"`
	EstServiceMs     float64 `json:"est_service_ms"`
	Admitted         uint64  `json:"admitted" metric:"counter seagull_admission_admitted_total Requests admitted, by endpoint."`
	Queued           uint64  `json:"queued"`
	Shed             uint64  `json:"shed,omitempty"`
	Evicted          uint64  `json:"evicted,omitempty"`
	DeadlineRejected uint64  `json:"deadline_rejected,omitempty"`
	Degraded         uint64  `json:"degraded,omitempty" metric:"counter seagull_admission_degraded_total Requests served by degraded fallbacks, by endpoint."`
	Canceled         uint64  `json:"canceled,omitempty"`
}

// Stats is the limiter's /varz document.
type Stats struct {
	// Limit is the current adaptive concurrency limit; MaxInflight is its
	// configured ceiling.
	Limit       float64 `json:"limit" metric:"gauge seagull_admission_limit Current adaptive concurrency limit."`
	MaxInflight int     `json:"max_inflight" metric:"gauge seagull_admission_max_inflight Configured concurrency ceiling."`
	InFlight    int     `json:"in_flight" metric:"gauge seagull_admission_in_flight Admitted requests currently executing."`
	InQueue     int     `json:"in_queue" metric:"gauge seagull_admission_in_queue Requests waiting for admission."`
	// Sheds/Evictions/DeadlineRejects are process-lifetime shed totals
	// across endpoints (per-endpoint splits below).
	Sheds           uint64 `json:"sheds" metric:"counter seagull_admission_sheds_total Requests shed at admission."`
	Evictions       uint64 `json:"evictions" metric:"counter seagull_admission_evictions_total Queued requests evicted by higher-priority arrivals."`
	DeadlineRejects uint64 `json:"deadline_rejects" metric:"counter seagull_admission_deadline_rejects_total Requests rejected as unable to meet their deadline."`
	// Brownout reports whether degraded fallbacks are currently serving;
	// BrownoutEntries counts transitions into that state.
	Brownout        bool                     `json:"brownout" metric:"gauge seagull_admission_brownout 1 while degraded fallbacks are serving."`
	BrownoutEntries uint64                   `json:"brownout_entries" metric:"counter seagull_admission_brownout_entries_total Transitions into brownout."`
	Endpoints       map[string]EndpointStats `json:"endpoints" label:"endpoint"`
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Limit:       l.limit,
		MaxInflight: l.cfg.MaxInflight,
		InFlight:    l.inFlight,
		InQueue:     l.queued,
	}
	l.mu.Unlock()
	s.Sheds = l.sheds.Load()
	s.Evictions = l.evictions.Load()
	s.DeadlineRejects = l.deadlineRejects.Load()
	s.Brownout = l.brownoutActive.Load()
	s.BrownoutEntries = l.brownoutEntries.Load()
	s.Endpoints = map[string]EndpointStats{}
	l.endpointsMu.Lock()
	for name, ep := range l.endpoints {
		s.Endpoints[name] = EndpointStats{
			Class:            ep.class.String(),
			TargetMs:         float64(ep.target) / float64(time.Millisecond),
			EstServiceMs:     float64(ep.estNs.Load()) / float64(time.Millisecond),
			Admitted:         ep.admitted.Load(),
			Queued:           ep.queuedTotal.Load(),
			Shed:             ep.shed.Load(),
			Evicted:          ep.evicted.Load(),
			DeadlineRejected: ep.deadlineRejected.Load(),
			Degraded:         ep.degraded.Load(),
			Canceled:         ep.canceled.Load(),
		}
	}
	l.endpointsMu.Unlock()
	return s
}
