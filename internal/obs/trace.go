package obs

import (
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/simclock"
)

// MaxSpans is the per-trace span capacity. Spans beyond it are dropped (and
// counted) rather than allocated: a fixed array is what keeps span recording
// off the allocator. Sixteen covers the deepest real request — a batch
// predict records one train+inference pair per worker checkout, and a
// refresh job records five stages.
const MaxSpans = 16

// numStripes shards the trace ring. Eight stripes keep Finish-time lock
// traffic negligible against the serving layer's worker counts.
const numStripes = 8

// Span is one recorded stage within a trace. Times are offsets from the
// trace start, on the tracer's clock.
type Span struct {
	Stage   Stage
	Flag    uint8
	StartNs int64
	DurNs   int64
}

// Trace is one in-flight or completed request trace. Traces live inside the
// tracer's ring slots and are recycled: a *Trace obtained from Start is
// valid until Finish, after which the tracer may hand the slot to a new
// request. Span recording is safe from multiple goroutines (batch predicts
// record concurrently from every fan-out worker).
type Trace struct {
	t     *Tracer
	op    string
	reqID string
	start time.Time
	seq   uint64

	totalNs int64
	status  int

	// active marks the slot as owned by an in-flight request; it is guarded
	// by the owning stripe's mutex so renderers can skip live slots.
	active bool

	nspans  atomic.Int32
	dropped atomic.Uint32
	spans   [MaxSpans]Span
}

// RequestID returns the trace's request ID ("" on a nil trace), joining logs
// to traces.
func (tr *Trace) RequestID() string {
	if tr == nil {
		return ""
	}
	return tr.reqID
}

// ActiveSpan is an open span handle returned by Trace.Begin. The zero value
// (from a nil trace) is inert, so call sites need no nil checks.
type ActiveSpan struct {
	tr    *Trace
	start time.Time
	stage Stage
}

// Begin opens a span for stage. Nil-safe: on a nil trace the returned handle
// does nothing, and no clock is read.
func (tr *Trace) Begin(stage Stage) ActiveSpan {
	if tr == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{tr: tr, stage: stage, start: tr.t.clock.Now()}
}

// End closes the span with no flag.
func (s ActiveSpan) End() { s.end(0) }

// EndHit closes the span, setting FlagHit when hit is true (warm checkout,
// train-memo skip).
func (s ActiveSpan) EndHit(hit bool) {
	var flag uint8
	if hit {
		flag = FlagHit
	}
	s.end(flag)
}

func (s ActiveSpan) end(flag uint8) {
	if s.tr == nil {
		return
	}
	now := s.tr.t.clock.Now()
	s.tr.record(s.stage, flag, s.start.Sub(s.tr.start), now.Sub(s.start))
}

// record claims the next span slot lock-free (concurrent batch workers write
// distinct indices) and folds the duration into the tracer's per-stage
// aggregates. Spans beyond MaxSpans are counted, not stored.
func (tr *Trace) record(stage Stage, flag uint8, startOff, dur time.Duration) {
	a := &tr.t.stages[stage]
	a.count.Add(1)
	a.sumNs.Add(int64(dur))
	if flag&FlagHit != 0 {
		a.hits.Add(1)
	}
	for {
		max := a.maxNs.Load()
		if int64(dur) <= max || a.maxNs.CompareAndSwap(max, int64(dur)) {
			break
		}
	}
	i := tr.nspans.Add(1) - 1
	if int(i) >= MaxSpans {
		tr.dropped.Add(1)
		return
	}
	tr.spans[i] = Span{Stage: stage, Flag: flag, StartNs: int64(startOff), DurNs: int64(dur)}
}

// stageAgg accumulates one stage's lifetime aggregates across all traces.
type stageAgg struct {
	count atomic.Uint64
	hits  atomic.Uint64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

// stripe is one shard of the trace ring.
type stripe struct {
	mu    sync.Mutex
	slots []Trace
	next  int
}

// boardEntry is one slowest-N slot: a by-value copy of a qualifying trace,
// pre-allocated so offering never touches the allocator.
type boardEntry struct {
	used    bool
	op      string
	reqID   string
	start   time.Time
	seq     uint64
	totalNs int64
	status  int
	n       int32
	dropped uint32
	spans   [MaxSpans]Span
}

// board keeps the slowest-N completed traces. minNs caches the board's
// smallest total once full, so the hot-path pre-check is one atomic load.
type board struct {
	mu      sync.Mutex
	full    atomic.Bool
	minNs   atomic.Int64
	entries []boardEntry
}

func (b *board) offer(tr *Trace) {
	if len(b.entries) == 0 {
		return
	}
	if b.full.Load() && tr.totalNs <= b.minNs.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Replace the smallest entry (or fill a free one).
	victim, minNs := -1, int64(0)
	for i := range b.entries {
		e := &b.entries[i]
		if !e.used {
			victim, minNs = i, 0
			break
		}
		if victim == -1 || e.totalNs < minNs {
			victim, minNs = i, e.totalNs
		}
	}
	if b.entries[victim].used && tr.totalNs <= minNs {
		return
	}
	e := &b.entries[victim]
	e.used = true
	e.op, e.reqID, e.start, e.seq = tr.op, tr.reqID, tr.start, tr.seq
	e.totalNs, e.status = tr.totalNs, tr.status
	e.n = clampSpans(tr.nspans.Load())
	e.dropped = tr.dropped.Load()
	e.spans = tr.spans
	// Refresh the cached minimum.
	full, min := true, int64(-1)
	for i := range b.entries {
		if !b.entries[i].used {
			full = false
			break
		}
		if min == -1 || b.entries[i].totalNs < min {
			min = b.entries[i].totalNs
		}
	}
	if full {
		b.minNs.Store(min)
	}
	b.full.Store(full)
}

func clampSpans(n int32) int32 {
	if n > MaxSpans {
		return MaxSpans
	}
	return n
}

// A Tracer retains the ringSize most recent traces (rounded up to a multiple
// of the stripe count) and keeps the slowestN slowest on its board.
const (
	ringSize = 512
	slowestN = 16
)

// TracerConfig parameterizes a Tracer. The zero value never emits slow-trace
// logs.
type TracerConfig struct {
	// SlowThreshold emits a structured log line with the full span tree for
	// every trace whose total duration reaches it. 0 disables.
	SlowThreshold time.Duration
	// Logger receives slow-trace emissions; nil uses slog.Default() when a
	// threshold is set.
	Logger *slog.Logger
	// Clock supplies span timestamps; nil means the wall clock. Under a
	// simulated clock span durations are simulated time — deterministic per
	// seed, which seagull-simulate relies on.
	Clock simclock.Clock
}

// Tracer records request traces into a lock-striped fixed ring. All methods
// are safe for concurrent use and nil-safe, so call sites wire a tracer
// through config fields without guarding every touch.
type Tracer struct {
	cfg      TracerConfig
	clock    simclock.Clock
	seq      atomic.Uint64
	overruns atomic.Uint64
	stripes  [numStripes]stripe
	stages   [numStages]stageAgg
	board    board
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	perStripe := (ringSize + numStripes - 1) / numStripes
	t := &Tracer{cfg: cfg, clock: simclock.Or(cfg.Clock)}
	if cfg.SlowThreshold > 0 && cfg.Logger == nil {
		t.cfg.Logger = slog.Default()
	}
	for i := range t.stripes {
		t.stripes[i].slots = make([]Trace, perStripe)
	}
	t.board.entries = make([]boardEntry, slowestN)
	return t
}

// Start claims a ring slot and begins a trace for op. requestID may be empty;
// a stable ID is then minted from the trace sequence number. Returns nil —
// which every downstream method tolerates — on a nil tracer, or when the
// claimed slot is still owned by a request older than the whole ring.
func (t *Tracer) Start(op, requestID string) *Trace {
	if t == nil {
		return nil
	}
	seq := t.seq.Add(1)
	st := &t.stripes[seq%numStripes]
	st.mu.Lock()
	tr := &st.slots[st.next]
	if tr.active {
		// The request that owns this slot outlived the entire ring; skip
		// tracing this one rather than corrupting a live trace.
		st.mu.Unlock()
		t.overruns.Add(1)
		return nil
	}
	tr.active = true
	st.next++
	if st.next == len(st.slots) {
		st.next = 0
	}
	st.mu.Unlock()
	if requestID == "" {
		requestID = mintID(seq)
	}
	tr.t = t
	tr.op = op
	tr.reqID = requestID
	tr.seq = seq
	tr.start = t.clock.Now()
	tr.totalNs = 0
	tr.status = 0
	tr.nspans.Store(0)
	tr.dropped.Store(0)
	return tr
}

// mintID derives a request ID from the trace sequence number. It allocates
// one small string; callers that must stay allocation-free pass their own ID.
func mintID(seq uint64) string { return "r-" + strconv.FormatUint(seq, 16) }

// Finish completes a trace: stamps the total, offers it to the slowest
// board, emits the slow-trace log when the threshold is met, and republishes
// the slot to renderers. status is the HTTP status (0 for non-HTTP ops).
// Nil-safe in both arguments.
func (t *Tracer) Finish(tr *Trace, status int) {
	if t == nil || tr == nil {
		return
	}
	tr.totalNs = int64(t.clock.Now().Sub(tr.start))
	tr.status = status
	t.board.offer(tr)
	if thr := t.cfg.SlowThreshold; thr > 0 && time.Duration(tr.totalNs) >= thr && t.cfg.Logger != nil {
		t.emitSlow(tr)
	}
	st := &t.stripes[tr.seq%numStripes]
	st.mu.Lock()
	tr.active = false
	st.mu.Unlock()
}

// emitSlow logs one slow trace with its full span tree rendered as a compact
// stage=duration list. This path allocates; it only runs for traces over the
// threshold.
func (t *Tracer) emitSlow(tr *Trace) {
	var b strings.Builder
	n := int(clampSpans(tr.nspans.Load()))
	for i := 0; i < n; i++ {
		sp := &tr.spans[i]
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Stage.String())
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(float64(sp.DurNs)/1e6, 'f', 3, 64))
		b.WriteString("ms")
		if sp.Flag&FlagHit != 0 {
			b.WriteString("(hit)")
		}
	}
	t.cfg.Logger.Warn("slow request",
		"op", tr.op,
		"request_id", tr.reqID,
		"total_ms", float64(tr.totalNs)/1e6,
		"status", tr.status,
		"spans", b.String(),
	)
}

// Overruns counts Start calls skipped because their ring slot was still
// owned by an in-flight request.
func (t *Tracer) Overruns() uint64 {
	if t == nil {
		return 0
	}
	return t.overruns.Load()
}

// --- render surfaces (allocate freely; never on a request path) ---

// SpanView is the wire form of one span.
type SpanView struct {
	Stage   string  `json:"stage"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"duration_ms"`
	Hit     bool    `json:"hit,omitempty"`
}

// TraceView is the wire form of one completed trace.
type TraceView struct {
	Seq          uint64     `json:"seq"`
	Op           string     `json:"op"`
	RequestID    string     `json:"request_id"`
	Start        time.Time  `json:"start"`
	TotalMs      float64    `json:"total_ms"`
	Status       int        `json:"status,omitempty"`
	DroppedSpans uint32     `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

func spanViews(spans *[MaxSpans]Span, n int32) []SpanView {
	out := make([]SpanView, n)
	for i := range out {
		sp := &spans[i]
		out[i] = SpanView{
			Stage:   sp.Stage.String(),
			StartMs: float64(sp.StartNs) / 1e6,
			DurMs:   float64(sp.DurNs) / 1e6,
			Hit:     sp.Flag&FlagHit != 0,
		}
	}
	return out
}

// Recent returns up to n completed traces, newest first. In-flight traces
// are skipped — their spans are still being written.
func (t *Tracer) Recent(n int) []TraceView {
	if t == nil || n <= 0 {
		return nil
	}
	var out []TraceView
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for j := range st.slots {
			tr := &st.slots[j]
			if tr.active || tr.seq == 0 {
				continue
			}
			out = append(out, TraceView{
				Seq:          tr.seq,
				Op:           tr.op,
				RequestID:    tr.reqID,
				Start:        tr.start,
				TotalMs:      float64(tr.totalNs) / 1e6,
				Status:       tr.status,
				DroppedSpans: tr.dropped.Load(),
				Spans:        spanViews(&tr.spans, clampSpans(tr.nspans.Load())),
			})
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Slowest returns the slowest-N board, slowest first.
func (t *Tracer) Slowest() []TraceView {
	if t == nil {
		return nil
	}
	t.board.mu.Lock()
	var out []TraceView
	for i := range t.board.entries {
		e := &t.board.entries[i]
		if !e.used {
			continue
		}
		out = append(out, TraceView{
			Seq:          e.seq,
			Op:           e.op,
			RequestID:    e.reqID,
			Start:        e.start,
			TotalMs:      float64(e.totalNs) / 1e6,
			Status:       e.status,
			DroppedSpans: e.dropped,
			Spans:        spanViews(&e.spans, e.n),
		})
	}
	t.board.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// StageStat is one stage's lifetime aggregate across every trace: span
// count, cache hits where the stage has them, and total/mean/max duration.
type StageStat struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count" metric:"counter seagull_trace_stage_total Spans recorded, by pipeline stage."`
	Hits    uint64  `json:"hits,omitempty" metric:"counter seagull_trace_stage_hits_total Spans that hit a warm path (pool checkout, train memo), by stage."`
	TotalMs float64 `json:"total_ms" metric:"counter seagull_trace_stage_seconds_sum Total time spent in each pipeline stage, in seconds." div:"1000"`
	AvgMs   float64 `json:"avg_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// StageStats snapshots the per-stage aggregates for every stage that has
// recorded at least one span, in stage order. This is the per-stage latency
// breakdown surfaced by /debug/traces, /metrics and the simulation harness's
// SLO report.
func (t *Tracer) StageStats() []StageStat {
	if t == nil {
		return nil
	}
	var out []StageStat
	for s := Stage(0); s < numStages; s++ {
		a := &t.stages[s]
		c := a.count.Load()
		if c == 0 {
			continue
		}
		sum := a.sumNs.Load()
		out = append(out, StageStat{
			Stage:   s.String(),
			Count:   c,
			Hits:    a.hits.Load(),
			TotalMs: float64(sum) / 1e6,
			AvgMs:   float64(sum) / 1e6 / float64(c),
			MaxMs:   float64(a.maxNs.Load()) / 1e6,
		})
	}
	return out
}

// TraceMetrics is the tracer's /metrics document: the per-stage aggregates
// keyed by stage name, and the overrun counter.
type TraceMetrics struct {
	Stages   map[string]StageStat `label:"stage"`
	Overruns uint64               `metric:"counter seagull_trace_overruns_total Trace starts skipped because every ring slot was active."`
}

// Metrics snapshots the tracer for /metrics. Nil — which Expo.Struct renders
// as nothing — on a nil tracer or before the first span.
func (t *Tracer) Metrics() *TraceMetrics {
	stats := t.StageStats()
	if len(stats) == 0 {
		return nil
	}
	m := &TraceMetrics{Stages: make(map[string]StageStat, len(stats)), Overruns: t.Overruns()}
	for _, st := range stats {
		m.Stages[st.Stage] = st
	}
	return m
}
