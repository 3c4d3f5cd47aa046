package stream

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"seagull/internal/simclock"
	"seagull/internal/timeseries"
)

// Common errors returned by the stream layer.
var (
	ErrBadInterval = errors.New("stream: series interval must match the ingestor slot interval")
	ErrNoTelemetry = errors.New("stream: no live telemetry for server")
	ErrRefused     = errors.New("stream: point refused: the write-ahead log could not be flushed")
)

// Config parameterizes an Ingestor. The zero value selects the production
// defaults: five-minute slots (the paper's telemetry granularity) and four
// weeks of retained history per server.
type Config struct {
	// Interval is the slot granularity every point rolls up to; it must match
	// the granularity the pipeline trains at. Default five minutes.
	Interval time.Duration
	// Epoch is the slot-index origin: a point at time t lands in slot
	// (t-Epoch)/Interval. Points before Epoch are rejected as too old.
	// Default: the Unix epoch (UTC).
	Epoch time.Time
	// Slots bounds the retained history per server, in slots; as the newest
	// slot advances, slots older than the trailing window fall off. Default
	// 8064 (four weeks at five-minute granularity).
	Slots int
	// Clock is the time source maxFuture is judged against; nil means the
	// wall clock. Tests and simulations inject their own.
	Clock simclock.Clock
}

// maxFuture bounds how far past the clock a point's timestamp may lie.
// Without it, one bogus far-future point (a client sending milliseconds where
// seconds are expected, say) would slide the server's whole retained window
// into the future and turn every real point into a too-old drop. One hour
// allows generous clock skew.
const maxFuture = time.Hour

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Unix(0, 0).UTC()
	}
	if c.Slots <= 0 {
		c.Slots = 4 * 7 * 24 * 12 // four weeks of five-minute slots
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// AppendStatus reports what happened to one appended point.
type AppendStatus uint8

// Append outcomes.
const (
	// Appended: the point filled a new slot.
	Appended AppendStatus = iota
	// Duplicate: the slot already held a value; the first write wins, which
	// makes ingestion idempotent under at-least-once delivery and replays.
	Duplicate
	// TooOld: the point predates the server's retained window (or the epoch)
	// and was dropped.
	TooOld
	// TooNew: the point's timestamp lies more than maxFuture past the clock
	// and was dropped before it could poison the ring.
	TooNew
	// BadValue: the value was NaN or infinite.
	BadValue
	// Refused: the shard's WAL buffer was full and flushing it failed, so the
	// point was not applied. Retryable: appends are idempotent, and the
	// point is accepted once the log takes writes again.
	Refused
)

// String renders the status for diagnostics.
func (s AppendStatus) String() string {
	switch s {
	case Appended:
		return "appended"
	case Duplicate:
		return "duplicate"
	case TooOld:
		return "too-old"
	case TooNew:
		return "too-new"
	case Refused:
		return "refused"
	default:
		return "bad-value"
	}
}

// Stats is a point-in-time snapshot of ingestion counters across all shards.
type Stats struct {
	Servers    int    `json:"servers" metric:"gauge seagull_ingest_servers Servers with live telemetry windows."`
	Appended   uint64 `json:"appended" metric:"counter seagull_ingest_appended_total Telemetry points appended."`
	Duplicates uint64 `json:"duplicates" metric:"counter seagull_ingest_duplicates_total Telemetry points dropped as duplicates."`
	TooOld     uint64 `json:"too_old" metric:"counter seagull_ingest_too_old_total Telemetry points older than the retained window."`
	TooNew     uint64 `json:"too_new" metric:"counter seagull_ingest_too_new_total Telemetry points beyond the accepted horizon."`
	BadValues  uint64 `json:"bad_values" metric:"counter seagull_ingest_bad_values_total Telemetry points rejected as non-finite."`
}

// Add folds another ingestor's snapshot into s, for fleet-wide totals:
// replicas own disjoint shards, so server counts add like the counters do.
func (s *Stats) Add(o Stats) {
	s.Servers += o.Servers
	s.Appended += o.Appended
	s.Duplicates += o.Duplicates
	s.TooOld += o.TooOld
	s.TooNew += o.TooNew
	s.BadValues += o.BadValues
}

// serverRing is one server's retained history: a linear buffer of 2×Slots
// slots (NaN = empty) that slides forward by an amortized shift, so the live
// window is always contiguous in memory and zero-copy views are possible —
// a classic ring buffer would wrap and force copies on every read.
type serverRing struct {
	vals  []float64
	start int64 // absolute slot index of vals[0]
	head  int64 // one past the newest filled slot
	min   int64 // oldest filled slot (lower bound after eviction)
}

func newRing(slot int64, slots int) *serverRing {
	vals := make([]float64, 2*slots)
	for i := range vals {
		vals[i] = timeseries.Missing
	}
	// Placing the first point in the middle leaves a full window of backward
	// room for out-of-order arrivals that predate it.
	return &serverRing{vals: vals, start: slot - int64(slots), head: slot, min: slot}
}

// put rolls one point into its slot. The first write to a slot wins;
// re-deliveries are reported as Duplicate and ignored, which keeps the
// rolled-up state independent of arrival order (the equivalence the property
// tests pin).
func (r *serverRing) put(slot int64, v float64, slots int) AppendStatus {
	if slot < r.head-int64(slots) {
		return TooOld
	}
	idx := slot - r.start
	if idx < 0 {
		// Unreachable under the start ≤ head-Slots invariant; kept as a
		// defensive drop rather than a panic on a hot concurrent path.
		return TooOld
	}
	if idx >= int64(len(r.vals)) {
		r.shift(slot)
		idx = slot - r.start
	}
	if !math.IsNaN(r.vals[idx]) {
		return Duplicate
	}
	r.vals[idx] = v
	if slot >= r.head {
		r.head = slot + 1
	}
	if slot < r.min {
		r.min = slot
	}
	return Appended
}

// shift slides the buffer so slot becomes indexable, moving the trailing
// retained window that ends at slot to the front of the buffer — which
// leaves a full window of forward room, so the next shift is at least
// len(vals)/2 appends away and the amortized append cost stays O(1) and
// allocation-free.
func (r *serverRing) shift(slot int64) {
	slots := int64(len(r.vals) / 2)
	newStart := slot + 1 - slots
	lo := r.min
	if hs := slot + 1 - slots; lo < hs {
		lo = hs // slots beyond the retained window are evicted by the move
	}
	if lo < r.head {
		copy(r.vals[lo-newStart:r.head-newStart], r.vals[lo-r.start:r.head-r.start])
		for i := int64(0); i < lo-newStart; i++ {
			r.vals[i] = timeseries.Missing
		}
		for i := r.head - newStart; i < int64(len(r.vals)); i++ {
			r.vals[i] = timeseries.Missing
		}
		if r.min < lo {
			r.min = lo
		}
	} else {
		for i := range r.vals {
			r.vals[i] = timeseries.Missing
		}
		r.min = slot + 1 // nothing retained; the pending put re-establishes it
		r.head = slot    // and advances head
	}
	r.start = newStart
}

// view returns the zero-copy live window [max(min, head-Slots), head).
func (r *serverRing) view(slots int, epoch time.Time, interval time.Duration) (timeseries.Series, bool) {
	lo := r.min
	if hs := r.head - int64(slots); lo < hs {
		lo = hs
	}
	if lo >= r.head {
		return timeseries.Series{}, false
	}
	vals := r.vals[lo-r.start : r.head-r.start : r.head-r.start]
	return timeseries.New(epoch.Add(time.Duration(lo)*interval), interval, vals), true
}

// walEntry is one accepted point pending WAL group commit: the minimum
// needed to replay the ring-level put. Value type, no pointers — buffering
// one is a copy into a preallocated slice, not an allocation.
type walEntry struct {
	id   string
	slot int64
	val  float64
}

// shard is one lock stripe of server rings. Counters are guarded by mu.
type shard struct {
	mu         sync.RWMutex
	rings      map[string]*serverRing
	appended   uint64
	duplicates uint64
	tooOld     uint64
	tooNew     uint64
	badValues  uint64

	// gen counts ring mutations (appends and replays) in this shard; the
	// incremental snapshotter skips shards whose gen hasn't moved since
	// their last snapshot, so unchanged shards cost nothing.
	gen uint64

	// WAL hook, armed by Durability. Accepted points are buffered in pend
	// under mu (append into preallocated capacity — the hot path stays
	// 0 allocs/op). The group committer frames them into the log and drops
	// them only once the log is synced. A full buffer is back-pressure, never
	// loss: the appender commits the log itself through walFlush (waiting out
	// any running snapshot round) before it applies the point, and refuses
	// the point unapplied if that commit fails.
	walOn    bool
	pend     []walEntry
	walKick  chan struct{}
	walFlush func() error
}

// Ingestor accepts out-of-order per-server load points and rolls them up
// incrementally to the pipeline's slot granularity. Server rings are hashed
// across lock-striped shards; the warm append path (ring exists) is
// allocation-free. Safe for concurrent use.
type Ingestor struct {
	cfg  Config
	mask uint32
	sh   []shard
}

// NewIngestor returns an empty ingestor with sixteen lock stripes.
func NewIngestor(cfg Config) *Ingestor { return newIngestor(cfg, 16) }

// newIngestor returns an empty ingestor over stripes lock stripes, a power of
// two.
func newIngestor(cfg Config, stripes int) *Ingestor {
	g := &Ingestor{cfg: cfg.withDefaults(), mask: uint32(stripes - 1), sh: make([]shard, stripes)}
	for i := range g.sh {
		g.sh[i].rings = map[string]*serverRing{}
	}
	return g
}

// Interval returns the slot granularity.
func (g *Ingestor) Interval() time.Duration { return g.cfg.Interval }

// Epoch returns the slot-index origin.
func (g *Ingestor) Epoch() time.Time { return g.cfg.Epoch }

// SlotOf returns the slot index covering t, and whether t is at or after the
// epoch.
func (g *Ingestor) SlotOf(t time.Time) (int64, bool) {
	d := t.Sub(g.cfg.Epoch)
	if d < 0 {
		return 0, false
	}
	return int64(d / g.cfg.Interval), true
}

// shardOf stripes a server id across shards with FNV-1a (inlined: the
// hash/fnv package would force a byte-slice conversion and an allocation on
// the hot path).
func (g *Ingestor) shardOf(serverID string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(serverID); i++ {
		h ^= uint64(serverID[i])
		h *= 1099511628211
	}
	return &g.sh[uint32(h)&g.mask]
}

// Append rolls one load point into the server's ring. Allocation-free once
// the server's ring exists (the first point per server allocates it).
func (g *Ingestor) Append(serverID string, t time.Time, v float64) AppendStatus {
	sh := g.shardOf(serverID)
	now := g.cfg.Clock.Now()
	sh.mu.Lock()
	st, _ := g.add(sh, nil, serverID, t, v, now)
	sh.mu.Unlock()
	return st
}

// add judges one point against now and rolls it into sh, whose lock the
// caller holds (add may drop and retake it), counting its verdict. r is the
// server's ring or nil; add returns the ring to pass with the next point.
func (g *Ingestor) add(sh *shard, r *serverRing, serverID string, t time.Time, v float64, now time.Time) (AppendStatus, *serverRing) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		sh.badValues++
		return BadValue, r
	}
	if t.Sub(now) > maxFuture {
		sh.tooNew++
		return TooNew, r
	}
	slot, ok := g.SlotOf(t)
	if !ok {
		sh.tooOld++
		return TooOld, r
	}
	for sh.walOn && len(sh.pend) >= cap(sh.pend) {
		// The buffer is full: commit the log before taking the point, so
		// every acknowledged point reaches it. The commit runs under the
		// committer's lock, so it waits for a running snapshot round.
		sh.mu.Unlock()
		err := sh.walFlush()
		sh.mu.Lock()
		if r = nil; err != nil {
			return Refused, nil
		}
	}
	if r == nil {
		if r = sh.rings[serverID]; r == nil {
			r = newRing(slot, g.cfg.Slots)
			sh.rings[serverID] = r
		}
	}
	st := r.put(slot, v, g.cfg.Slots)
	switch st {
	case Appended:
		sh.appended++
		sh.gen++
		if sh.walOn {
			sh.pend = append(sh.pend, walEntry{id: serverID, slot: slot, val: v})
			if len(sh.pend) == cap(sh.pend)/2 {
				// Nudge the committer before the buffer fills; dropping the
				// nudge is fine — the commit ticker is the backstop.
				select {
				case sh.walKick <- struct{}{}:
				default:
				}
			}
		}
	case Duplicate:
		sh.duplicates++
	case TooOld:
		sh.tooOld++
	}
	return st, r
}

// replayPut applies one recovered WAL record directly at the ring level. The
// wall-clock bound is skipped — a replayed point was already accepted once,
// and judging it against the current clock would drop records near the
// maxFuture horizon — but every ring-level verdict still applies, so a record
// whose slot is covered by a newer snapshot lands as Duplicate (first write
// wins) and replay is idempotent. Replayed points are not re-buffered for the
// WAL (they are already in it) and do not move the process-lifetime ingestion
// counters, which describe this process, not the data.
func (g *Ingestor) replayPut(serverID string, slot int64, v float64) AppendStatus {
	if math.IsNaN(v) || math.IsInf(v, 0) || slot < 0 {
		return BadValue
	}
	sh := g.shardOf(serverID)
	sh.mu.Lock()
	r := sh.rings[serverID]
	if r == nil {
		r = newRing(slot, g.cfg.Slots)
		sh.rings[serverID] = r
	}
	st := r.put(slot, v, g.cfg.Slots)
	if st == Appended {
		sh.gen++
	}
	sh.mu.Unlock()
	return st
}

// attachWAL arms per-shard pending buffers of the given capacity. kick is
// nudged (non-blocking) when a buffer reaches half full; flush commits the
// log when an appender finds its shard's buffer full. Arm before concurrent
// appends begin.
func (g *Ingestor) attachWAL(buffer int, kick chan struct{}, flush func() error) {
	for i := range g.sh {
		sh := &g.sh[i]
		sh.mu.Lock()
		sh.walOn = true
		sh.walKick = kick
		sh.walFlush = flush
		if cap(sh.pend) < buffer {
			sh.pend = make([]walEntry, 0, buffer)
		}
		sh.mu.Unlock()
	}
}

// framePending appends shard i's pending WAL entries to buf as frames,
// returning the grown buffer and how many entries it framed. The entries stay
// buffered until dropCommitted, so a failed commit loses none of them.
func (g *Ingestor) framePending(i int, buf []byte) ([]byte, int) {
	sh := &g.sh[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, e := range sh.pend {
		buf = appendWALFrame(buf, e)
	}
	return buf, len(sh.pend)
}

// dropCommitted removes shard i's first n pending entries, which a synced
// commit framed. Entries buffered since keep their order.
func (g *Ingestor) dropCommitted(i, n int) {
	sh := &g.sh[i]
	sh.mu.Lock()
	sh.pend = sh.pend[:copy(sh.pend, sh.pend[n:])]
	sh.mu.Unlock()
}

// AppendSummary tallies the outcomes of a batch append.
type AppendSummary struct {
	Appended   int `json:"appended"`
	Duplicates int `json:"duplicates"`
	TooOld     int `json:"too_old"`
	TooNew     int `json:"too_new"`
	BadValues  int `json:"bad_values"`
	// Skipped counts missing (NaN) observations in a series append, which
	// are not ingested — an empty slot already means missing.
	Skipped int `json:"skipped"`
}

// Add folds one point status into the summary (also used by the serving
// layer's ingest endpoint, so the status→counter mapping lives here only).
func (a *AppendSummary) Add(st AppendStatus) {
	switch st {
	case Appended:
		a.Appended++
	case Duplicate:
		a.Duplicates++
	case TooOld:
		a.TooOld++
	case TooNew:
		a.TooNew++
	case BadValue:
		a.BadValues++
	}
}

// Merge folds another batch's tallies into a.
func (a *AppendSummary) Merge(o AppendSummary) {
	a.Appended += o.Appended
	a.Duplicates += o.Duplicates
	a.TooOld += o.TooOld
	a.TooNew += o.TooNew
	a.BadValues += o.BadValues
	a.Skipped += o.Skipped
}

// seriesChunk is how many points AppendSeries puts under one lock hold.
const seriesChunk = 4096

// AppendSeries appends a contiguous run of observations starting at start,
// with the verdicts of a loop of Append. The series interval must equal the
// ingestor's slot interval (points are rolled up by slot, so a mismatched
// interval would alias). Missing (NaN) observations are skipped — an
// unfilled slot already reads as missing. It hashes the server, reads the
// clock and finds the ring once per call, so the too-new edge can lag by
// the call's own duration, and it lets the shard's readers in every
// seriesChunk points. A Refused point stops the run with ErrRefused;
// re-sending the whole series is safe.
func (g *Ingestor) AppendSeries(serverID string, start time.Time, vals []float64) (AppendSummary, error) {
	var sum AppendSummary
	if len(vals) == 0 {
		return sum, nil
	}
	sh := g.shardOf(serverID)
	now := g.cfg.Clock.Now()
	var r *serverRing
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, v := range vals {
		if i > 0 && i%seriesChunk == 0 {
			sh.mu.Unlock()
			sh.mu.Lock()
			r = nil
		}
		if timeseries.IsMissing(v) {
			sum.Skipped++
			continue
		}
		var st AppendStatus
		if st, r = g.add(sh, r, serverID, start.Add(time.Duration(i)*g.cfg.Interval), v, now); st == Refused {
			return sum, ErrRefused
		}
		sum.Add(st)
	}
	return sum, nil
}

// WithView runs fn with a zero-copy view of the server's live window —
// [newest-Slots, newest] trimmed to filled slots, unfilled slots reading as
// timeseries.Missing — while holding the server's shard read lock, so the
// view is stable for the duration of fn. fn must not retain the series or
// call back into the ingestor. It reports whether the server had any live
// telemetry.
func (g *Ingestor) WithView(serverID string, fn func(live timeseries.Series)) bool {
	sh := g.shardOf(serverID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.rings[serverID]
	if r == nil {
		return false
	}
	s, ok := r.view(g.cfg.Slots, g.cfg.Epoch, g.cfg.Interval)
	if !ok {
		return false
	}
	fn(s)
	return true
}

// View returns a zero-copy view of the server's live window. The backing
// array is shared with the ring: the view is only stable until the next
// append for this server, so it suits single-writer phases and tests; use
// WithView or SnapshotInto when appenders run concurrently.
func (g *Ingestor) View(serverID string) (timeseries.Series, bool) {
	var out timeseries.Series
	ok := g.WithView(serverID, func(live timeseries.Series) { out = live })
	return out, ok
}

// SnapshotInto copies the server's live window into buf (grown when needed)
// and returns a series owning the copy — the stable-snapshot counterpart of
// WithView for long work like model training, where holding a shard lock
// would stall ingestion. Callers reuse the returned Values as the next buf
// to stay allocation-free in steady state.
func (g *Ingestor) SnapshotInto(serverID string, buf []float64) (timeseries.Series, bool) {
	sh := g.shardOf(serverID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.rings[serverID]
	if r == nil {
		return timeseries.Series{}, false
	}
	s, ok := r.view(g.cfg.Slots, g.cfg.Epoch, g.cfg.Interval)
	if !ok {
		return timeseries.Series{}, false
	}
	if cap(buf) < s.Len() {
		buf = make([]float64, s.Len())
	}
	buf = buf[:s.Len()]
	copy(buf, s.Values)
	return timeseries.New(s.Start, s.Interval, buf), true
}

// Servers lists every server with live telemetry, sorted.
func (g *Ingestor) Servers() []string {
	var out []string
	for i := range g.sh {
		sh := &g.sh[i]
		sh.mu.RLock()
		for id := range sh.rings {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Stats sums the ingestion counters across shards.
func (g *Ingestor) Stats() Stats {
	var st Stats
	for i := range g.sh {
		sh := &g.sh[i]
		sh.mu.RLock()
		st.Servers += len(sh.rings)
		st.Appended += sh.appended
		st.Duplicates += sh.duplicates
		st.TooOld += sh.tooOld
		st.TooNew += sh.tooNew
		st.BadValues += sh.badValues
		sh.mu.RUnlock()
	}
	return st
}
