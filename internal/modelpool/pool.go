// Package modelpool keeps trained forecasting models warm between uses. The
// serving layer checks instances out per request and the stream refresher per
// drift retrain; both go through the same Pool type, so a retrain reuses the
// scratch buffers a model retains across Train calls and loses its warm slots
// on the same registry changes as serving traffic.
package modelpool

import (
	"container/list"
	"math"
	"sync"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

// The pool keeps at most maxEntries distinct (scenario, region, version)
// slots warm; the least recently used slot is evicted beyond that. Every
// pooled instance is built with modelSeed, so a warm instance and a fresh one
// are interchangeable: all models pin retrain-equals-fresh behaviour in their
// equivalence tests, and identical seeding removes the remaining degree of
// freedom.
const (
	maxEntries       = 64
	modelSeed  int64 = 0
)

// DefaultMaxIdle is the per-slot idle bound of a refresher's pool: the
// concurrency level that stays warm. The serving layer raises it to its batch
// fan-out width so a whole batch's worker models re-pool.
const DefaultMaxIdle = 4

// Config configures a warm model pool.
type Config struct {
	// NewModel overrides model construction (tests inject slow or failing
	// models). Default forecast.New.
	NewModel func(name string, seed int64) (forecast.Model, error)
}

// poolKey identifies one warm slot: a deployment target at a specific
// version. Keying on the version means a promote or rollback naturally
// misses the pool even before the invalidation watcher runs.
type poolKey struct {
	scenario, region string
	version          int
}

// targetKey is the version-less half of a poolKey: invalidation generations
// are tracked per target because Invalidate drops every version of one.
type targetKey struct {
	scenario, region string
}

// Instance is one checked-out model with its warm-pool bookkeeping: the
// fingerprint of the last trained history, which lets TrainOn skip a
// retrain when a deterministic-inference model sees the identical series
// again (retries, several clients asking about the same server, an advise
// flow following a predict). Instances are handed out with exclusive
// ownership — models are not safe for concurrent use.
type Instance struct {
	Model forecast.Model
	// memoOK records whether the model advertises deterministic inference
	// (see forecast.InferenceDeterministic); only then may a retrain be
	// skipped.
	memoOK  bool
	trained bool
	// The last trained history, retained verbatim (start/interval/values).
	// Histories are arbitrary client-supplied data on a public endpoint, so
	// a skip is proven by comparing the actual bytes — sameHistory rejects
	// in O(1) on differing start/length and early-exits on the first
	// differing value, so no hash pre-filter is needed.
	histStart    time.Time
	histInterval time.Duration
	histVals     []float64
	// gen is the target's invalidation generation at checkout time; Return
	// drops the instance when the target was invalidated while it was out.
	gen uint64
}

func newInstance(m forecast.Model) *Instance {
	di, ok := m.(forecast.InferenceDeterministic)
	return &Instance{Model: m, memoOK: ok && di.DeterministicInference()}
}

// TrainOn trains the instance on h. When the model's inference is
// deterministic and h is bit-identical to the last trained history, the
// retrain is skipped — the post-Train state is already exactly what Train
// would re-establish. skipped reports whether that happened.
func (inst *Instance) TrainOn(h timeseries.Series) (skipped bool, err error) {
	if inst.memoOK && inst.trained && inst.sameHistory(h) {
		return true, nil
	}
	// Drop the trained flag before touching the model: Train mutates the
	// retained state in place, so an error — or a panic recovered further
	// up (parallel.safeCall on the batch path) — must leave the instance
	// marked untrained, or a later memo hit would serve a forecast from
	// half-mutated weights.
	inst.trained = false
	if err := inst.Model.Train(h); err != nil {
		return false, err
	}
	inst.trained = true
	if inst.memoOK {
		inst.histStart, inst.histInterval = h.Start, h.Interval
		if cap(inst.histVals) < len(h.Values) {
			inst.histVals = make([]float64, len(h.Values))
		}
		inst.histVals = inst.histVals[:len(h.Values)]
		copy(inst.histVals, h.Values)
	}
	return false, nil
}

// sameHistory compares h against the retained last-trained series bit for
// bit (Float64bits, so Missing/NaN observations compare equal to
// themselves).
func (inst *Instance) sameHistory(h timeseries.Series) bool {
	if !h.Start.Equal(inst.histStart) || h.Interval != inst.histInterval || len(h.Values) != len(inst.histVals) {
		return false
	}
	for i, v := range h.Values {
		if math.Float64bits(v) != math.Float64bits(inst.histVals[i]) {
			return false
		}
	}
	return true
}

// poolEntry is one slot's idle instances.
type poolEntry struct {
	key  poolKey
	idle []*Instance
}

// Stats is a point-in-time snapshot of pool effectiveness.
type Stats struct {
	Entries       int    `json:"entries" metric:"gauge seagull_pool_entries Warm-pool slots currently resident."`
	Idle          int    `json:"idle" metric:"gauge seagull_pool_idle Idle model instances across warm-pool slots."`
	Hits          uint64 `json:"hits" metric:"counter seagull_pool_hits_total Checkouts served from a warm instance."`
	Misses        uint64 `json:"misses" metric:"counter seagull_pool_misses_total Checkouts that built a fresh model."`
	Evictions     uint64 `json:"evictions" metric:"counter seagull_pool_evictions_total Warm-pool slots dropped by the LRU bound."`
	Invalidations uint64 `json:"invalidations" metric:"counter seagull_pool_invalidations_total Warm-pool invalidation events."` // registry changes, manual
}

// Add folds another pool's snapshot into s, for fleet-wide totals.
func (s *Stats) Add(o Stats) {
	s.Entries += o.Entries
	s.Idle += o.Idle
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
}

// Pool keeps trained model instances warm per (scenario, region, version) so
// repeated requests and retrains reuse the scratch buffers the models retain
// across Train calls (the retrain-equals-fresh guarantee) instead of
// reallocating them each time. Safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	newModel func(name string, seed int64) (forecast.Model, error)
	maxIdle  int                       // idle instances retained per slot
	entries  map[poolKey]*list.Element // value: *poolEntry
	lru      *list.List                // front = most recently used slot
	// gens counts invalidations per target; instances checked out under an
	// older generation are dropped on Return instead of resurrecting a
	// stale slot.
	gens  map[targetKey]uint64
	stats Stats
}

// New returns an empty pool that keeps up to maxIdle idle instances per slot.
func New(cfg Config, maxIdle int) *Pool {
	if cfg.NewModel == nil {
		cfg.NewModel = forecast.New
	}
	return &Pool{
		newModel: cfg.NewModel,
		maxIdle:  maxIdle,
		entries:  map[poolKey]*list.Element{},
		lru:      list.New(),
		gens:     map[targetKey]uint64{},
	}
}

// Bind subscribes the pool to a registry's deployment changes: any promote
// or rollback of a target invalidates that target's warm instances, so a
// request arriving after a deployment never trains a stale model name. The
// returned unbind removes the subscription; a pool that does not outlive
// the registry must be unbound or it stays pinned by the watcher.
func (p *Pool) Bind(reg *registry.Registry) (unbind func()) {
	return reg.Watch(p.Invalidate)
}

// Checkout hands out a model instance for the deployment (target, version,
// modelName) with exclusive ownership. It returns a warm instance when one
// is idle and builds a deterministic fresh one otherwise; hit reports which.
// The caller must hand the instance back with Return when done (also on
// error paths), or drop it on the floor — the pool does not track it.
func (p *Pool) Checkout(target registry.Target, version int, modelName string) (inst *Instance, hit bool, err error) {
	key := poolKey{scenario: target.Scenario, region: target.Region, version: version}
	p.mu.Lock()
	gen := p.gens[targetKey{scenario: target.Scenario, region: target.Region}]
	if el, ok := p.entries[key]; ok {
		p.lru.MoveToFront(el)
		e := el.Value.(*poolEntry)
		if n := len(e.idle); n > 0 {
			inst = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
			inst.gen = gen
			p.stats.Hits++
			p.mu.Unlock()
			return inst, true, nil
		}
	}
	p.stats.Misses++
	p.mu.Unlock()
	m, err := p.newModel(modelName, modelSeed)
	if err != nil {
		return nil, false, err
	}
	inst = newInstance(m)
	inst.gen = gen
	return inst, false, nil
}

// Return hands an instance back to its slot. Instances whose target was
// invalidated while they were out, and instances beyond the slot's idle bound,
// are dropped. A slot that was merely LRU-evicted in the meantime is
// recreated — the instance is still valid for its version, so re-pooling it
// is harmless LRU churn, unlike an invalidation, where re-pooling would
// serve a stale deployment.
func (p *Pool) Return(target registry.Target, version int, inst *Instance) {
	if inst == nil {
		return
	}
	key := poolKey{scenario: target.Scenario, region: target.Region, version: version}
	p.mu.Lock()
	defer p.mu.Unlock()
	if inst.gen != p.gens[targetKey{scenario: target.Scenario, region: target.Region}] {
		// The target was invalidated while the instance was out: dropping it
		// here is what keeps a stale slot from being resurrected.
		return
	}
	el, ok := p.entries[key]
	if !ok {
		// First return for this slot creates it (checkout misses do not, so
		// a burst of misses cannot thrash the LRU before any model is warm).
		e := &poolEntry{key: key}
		el = p.lru.PushFront(e)
		p.entries[key] = el
		for p.lru.Len() > maxEntries {
			back := p.lru.Back()
			evicted := back.Value.(*poolEntry)
			p.lru.Remove(back)
			delete(p.entries, evicted.key)
			p.stats.Evictions++
		}
	}
	e := el.Value.(*poolEntry)
	if len(e.idle) < p.maxIdle {
		e.idle = append(e.idle, inst)
	}
}

// Invalidate drops every warm slot of a target, across all versions —
// including instances currently checked out, which Return discards instead
// of re-pooling. Wired to registry.Watch by Bind, and callable directly
// (e.g. after mutating a model's configuration out of band).
func (p *Pool) Invalidate(target registry.Target) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gens[targetKey{scenario: target.Scenario, region: target.Region}]++
	p.stats.Invalidations++
	for key, el := range p.entries {
		if key.scenario == target.Scenario && key.region == target.Region {
			p.lru.Remove(el)
			delete(p.entries, key)
		}
	}
}

// Stats returns a snapshot of pool effectiveness counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Entries = p.lru.Len()
	for _, el := range p.entries {
		st.Idle += len(el.Value.(*poolEntry).idle)
	}
	return st
}
