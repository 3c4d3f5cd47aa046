package obs

import (
	"bufio"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/simclock"
)

// latencyBoundsMs are the histogram bucket upper bounds in milliseconds; a
// final implicit +Inf bucket catches the rest. Spanning 100µs to 10s covers
// warm-pool predicts (~10µs–1ms) through cold batch trains (seconds). An
// array (not a slice) so the bucket-counter array below is sized from it at
// compile time — editing the bounds can never silently truncate the
// histogram.
var latencyBoundsMs = [...]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// numLatencyBuckets is the bucket-counter width: one per bound plus the
// overflow bucket.
const numLatencyBuckets = len(latencyBoundsMs) + 1

// endpointVars is one endpoint's live counters. All fields are atomics: the
// observation path adds no locks to request handling.
type endpointVars struct {
	inFlight atomic.Int64
	count    atomic.Uint64
	errors   atomic.Uint64
	sumNs    atomic.Int64
	buckets  [numLatencyBuckets]atomic.Uint64 // last = overflow
}

// observe records one finished request.
func (ev *endpointVars) observe(d time.Duration, status int) {
	ev.count.Add(1)
	if status >= 400 {
		ev.errors.Add(1)
	}
	ev.sumNs.Add(int64(d))
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBoundsMs[:], ms)
	ev.buckets[i].Add(1)
}

// LatencyHist is the wire form of a latency histogram; embedded, its fields
// flatten into the enclosing JSON object. Arrays, not slices: the layout is
// fixed at compile time, and a fleet scrape decodes dozens of these without
// growing a slice for each.
type LatencyHist struct {
	// LatencyMsSum is the total handling time in milliseconds; divide by
	// the count for the mean.
	LatencyMsSum float64 `json:"latency_ms_sum"`
	// LatencyMsBounds are the histogram bucket upper bounds; LatencyCounts
	// has one extra trailing entry for observations beyond the last bound.
	LatencyMsBounds [len(latencyBoundsMs)]float64 `json:"latency_ms_bounds"`
	LatencyCounts   [numLatencyBuckets]uint64     `json:"latency_counts"`
}

// EndpointStats is the wire form of one endpoint's counters.
type EndpointStats struct {
	Count       uint64 `json:"count" metric:"counter seagull_http_requests_total Requests handled, by endpoint."`
	Errors      uint64 `json:"errors" metric:"counter seagull_http_request_errors_total Requests answered with status >= 400, by endpoint."`
	InFlight    int64  `json:"in_flight" metric:"gauge seagull_http_in_flight Requests currently being handled, by endpoint."`
	LatencyHist `metric:"histogram seagull_http_request_duration_seconds Request handling latency, by endpoint."`
}

// Add folds another endpoint's request and error counts into s: the fleet
// totals sum these two across every endpoint of every replica.
func (s *EndpointStats) Add(o EndpointStats) {
	s.Count += o.Count
	s.Errors += o.Errors
}

// HTTP is the request accounting of one process: per-endpoint latency
// histograms, error and in-flight counters, request IDs, and — with a tracer
// — the request's trace. The serving replicas and the router wrap their
// routes with the same Instrument, so both tiers account a request the same
// way.
type HTTP struct {
	clock   simclock.Clock
	tracer  *Tracer // nil: no traces; request IDs are still minted and echoed
	started time.Time
	ids     atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointVars
}

// NewHTTP builds the accounting for one process. clock nil means the wall
// clock; tracer may be nil.
func NewHTTP(clock simclock.Clock, tracer *Tracer) *HTTP {
	clock = simclock.Or(clock)
	return &HTTP{clock: clock, tracer: tracer, started: clock.Now(), endpoints: map[string]*endpointVars{}}
}

// UptimeSec is the time since NewHTTP, in seconds.
func (h *HTTP) UptimeSec() float64 { return simclock.Since(h.clock, h.started).Seconds() }

// statusWriter captures the response status for the error counter while
// forwarding the optional ResponseWriter upgrades — Flusher for streaming
// responses and Hijacker for connection takeover — that a plain embedding
// would silently swallow behind type assertions. Unwrap additionally lets
// http.ResponseController reach the underlying writer for everything else.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush forwards http.Flusher when the underlying writer streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards http.Hijacker when the underlying connection allows
// takeover, and reports ErrNotSupported otherwise (matching
// http.ResponseController's contract).
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := w.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// Instrument wraps a handler with latency/error/in-flight accounting under
// the given endpoint name. The inbound X-Request-Id (or a minted one) rides
// the response header; with a tracer it also labels the request's trace,
// which travels the request context so every layer below records spans into
// it. Call at mux-build time: the endpoint is registered on the spot.
func (h *HTTP) Instrument(name string, next http.HandlerFunc) http.HandlerFunc {
	h.mu.Lock()
	ev, ok := h.endpoints[name]
	if !ok {
		ev = &endpointVars{}
		h.endpoints[name] = ev
	}
	h.mu.Unlock()
	return func(w http.ResponseWriter, r *http.Request) {
		ev.inFlight.Add(1)
		defer ev.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := h.clock.Now()
		id := r.Header.Get("X-Request-Id")
		if tr := h.tracer.Start(name, id); tr != nil {
			id = tr.RequestID()
			r = r.WithContext(ContextWithTrace(r.Context(), tr))
			defer func() { h.tracer.Finish(tr, sw.status) }()
		} else if id == "" {
			id = mintID(h.ids.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		next(sw, r)
		ev.observe(h.clock.Now().Sub(start), sw.status)
	}
}

// Snapshot returns every instrumented endpoint's counters, keyed by name.
func (h *HTTP) Snapshot() map[string]EndpointStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]EndpointStats, len(h.endpoints))
	for name, ev := range h.endpoints {
		e := EndpointStats{
			Count:    ev.count.Load(),
			Errors:   ev.errors.Load(),
			InFlight: ev.inFlight.Load(),
			LatencyHist: LatencyHist{
				LatencyMsSum:    float64(ev.sumNs.Load()) / float64(time.Millisecond),
				LatencyMsBounds: latencyBoundsMs,
			},
		}
		for i := range ev.buckets {
			e.LatencyCounts[i] = ev.buckets[i].Load()
		}
		out[name] = e
	}
	return out
}
