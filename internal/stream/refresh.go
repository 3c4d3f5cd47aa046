package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/metrics"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simclock"
)

// Refresh errors.
var (
	ErrNoPrediction        = errors.New("stream: no stored prediction for server")
	ErrInsufficientHistory = errors.New("stream: insufficient live history to retrain")
	ErrQueueFull           = errors.New("stream: refresh queue full")
)

// RefreshConfig parameterizes a Refresher. The zero value selects the
// pipeline's production defaults: the refresher retrains the active model of
// the pipeline's backup scenario, through a queue of refreshQueueSize jobs.
type RefreshConfig struct {
	// Workers bounds how many retrains Run and Drain execute concurrently.
	// Default 1 (serial — the right choice on the single-CPU benchmark
	// host); multi-core hosts raise it and retrain drifted fleets in
	// parallel. Results are independent of the worker count: jobs touch
	// disjoint documents (the dedup queue holds at most one job per
	// (region, server, week)) and every retrain is deterministic, which the
	// drain equivalence test pins.
	Workers int
	// Clock timestamps drops for the saturation window; nil means the wall
	// clock.
	Clock simclock.Clock
	// Tracer, when non-nil, records one "refresh" trace per refresh with
	// spans around its snapshot, checkout, train, inference and upsert
	// phases — the stream-side mirror of the serving request trace.
	Tracer *obs.Tracer
	// Logger, when non-nil, reports refresh failures and skips (counted in
	// Stats either way; the log adds the server and the reason).
	Logger *slog.Logger
}

// The refresh queue's bounds. The queue is saturated while the last
// saturationDrops rejected enqueues all happened within saturationWindow; one
// isolated drop never reads as saturation.
const (
	refreshQueueSize = 1024
	saturationDrops  = 3
	saturationWindow = 5 * time.Second
)

func (c RefreshConfig) withDefaults() RefreshConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// RefreshStats snapshots the refresher's lifetime counters.
type RefreshStats struct {
	Queued    uint64 `json:"queued" metric:"counter seagull_refresh_queued_total Refresh jobs enqueued."`
	Coalesced uint64 `json:"coalesced" metric:"counter seagull_refresh_coalesced_total Refresh enqueues folded into a pending job."`
	Dropped   uint64 `json:"dropped" metric:"counter seagull_refresh_dropped_total Refresh enqueues rejected by a full queue."`
	Refreshed uint64 `json:"refreshed" metric:"counter seagull_refresh_refreshed_total Predictions retrained and republished."`
	Skipped   uint64 `json:"skipped" metric:"counter seagull_refresh_skipped_total Refreshes skipped for insufficient history."`
	Failed    uint64 `json:"failed" metric:"counter seagull_refresh_failed_total Refreshes that failed."`
	Pending   int    `json:"pending" metric:"gauge seagull_refresh_pending Refresh jobs currently queued."`
}

// Add folds another refresher's snapshot into s, for fleet-wide totals (the
// fleet's queue depth is the sum of its replicas').
func (s *RefreshStats) Add(o RefreshStats) {
	s.Queued += o.Queued
	s.Coalesced += o.Coalesced
	s.Dropped += o.Dropped
	s.Refreshed += o.Refreshed
	s.Skipped += o.Skipped
	s.Failed += o.Failed
	s.Pending += o.Pending
}

// job is one queued refresh.
type job struct {
	region   string
	serverID string
	week     int
}

// Refresher retrains drifted servers from live telemetry and republishes
// their PredictionDocs. Refreshes flow through a bounded dedup queue drained
// by Run or Drain (across Workers — retraining is CPU-bound, and the warm
// pool hands each checkout exclusive ownership), or synchronously through
// RefreshServer. Safe for concurrent use.
type Refresher struct {
	ing  *Ingestor
	db   *cosmos.DB
	reg  *registry.Registry
	pool *modelpool.Pool
	cfg  RefreshConfig

	workers *parallel.Pool // Run and Drain fan retrains across it

	mu      sync.Mutex
	jobs    chan job
	pending map[job]bool

	queued    atomic.Uint64
	coalesced atomic.Uint64
	dropped   atomic.Uint64
	refreshed atomic.Uint64
	skipped   atomic.Uint64
	failed    atomic.Uint64

	// dropTimes is a ring of the last saturationDrops rejection times,
	// feeding the Saturated predicate. Drops are rare (queue-full only), so
	// a small mutex-guarded ring costs nothing on the enqueue happy path.
	dropMu    sync.Mutex
	dropTimes []time.Time
	dropIdx   int

	scratchMu sync.Mutex
	scratch   []float64
}

// NewRefresher wires a refresher over live telemetry, the document store,
// the model registry and the warm model pool every retrain checks its model
// out of. The pool should be bound to reg (Pool.Bind), so a promote or
// rollback drops the warm instances of the old deployment.
func NewRefresher(ing *Ingestor, db *cosmos.DB, reg *registry.Registry, pool *modelpool.Pool, cfg RefreshConfig) *Refresher {
	cfg = cfg.withDefaults()
	return &Refresher{
		ing: ing, db: db, reg: reg, pool: pool, cfg: cfg,
		workers: parallel.NewPool(cfg.Workers),
		jobs:    make(chan job, refreshQueueSize),
		pending: map[job]bool{},
	}
}

// Enqueue queues one server for refresh. queued reports whether a new job
// entered the queue: an enqueue matching an already-pending job coalesces
// (false, nil), and a full queue rejects with ErrQueueFull (drift sweeps
// re-find a server that stays drifted, so a rejected enqueue heals on the
// next sweep).
func (r *Refresher) Enqueue(region, serverID string, week int) (queued bool, err error) {
	j := job{region: region, serverID: serverID, week: week}
	r.mu.Lock()
	if r.pending[j] {
		r.mu.Unlock()
		r.coalesced.Add(1)
		return false, nil
	}
	select {
	case r.jobs <- j:
		r.pending[j] = true
		r.mu.Unlock()
		r.queued.Add(1)
		return true, nil
	default:
		r.mu.Unlock()
		r.dropped.Add(1)
		r.recordDrop(r.cfg.Clock.Now())
		return false, ErrQueueFull
	}
}

// recordDrop folds one queue-full rejection into the saturation ring.
func (r *Refresher) recordDrop(now time.Time) {
	r.dropMu.Lock()
	if len(r.dropTimes) < saturationDrops {
		r.dropTimes = append(r.dropTimes, now)
	} else {
		r.dropTimes[r.dropIdx] = now
		r.dropIdx = (r.dropIdx + 1) % len(r.dropTimes)
	}
	r.dropMu.Unlock()
}

// Saturated reports sustained refresh-queue backpressure: the last
// saturationDrops rejected enqueues all landed within saturationWindow of
// now. Consumers use it to yield — the background sweeper pauses its rounds
// (re-finding drifted servers it cannot queue only churns the detector), and
// the serving layer treats it as a brownout-entry signal. A single isolated
// drop never reads as saturation, and the predicate clears on its own once
// the window slides past the last burst.
func (r *Refresher) Saturated() bool {
	r.dropMu.Lock()
	defer r.dropMu.Unlock()
	if len(r.dropTimes) < saturationDrops {
		return false
	}
	cutoff := r.cfg.Clock.Now().Add(-saturationWindow)
	for _, t := range r.dropTimes {
		if t.Before(cutoff) {
			return false
		}
	}
	return true
}

// EnqueueReport queues every drifted server of a sweep report. queued is how
// many newly entered the queue (coalesced enqueues excluded); dropped is how
// many a full queue rejected — the backpressure signal callers surface
// instead of silently discarding (a server that stays drifted is re-found
// and re-queued by the next sweep, so a drop delays its refresh rather than
// losing it).
func (r *Refresher) EnqueueReport(rep Report) (queued, dropped int) {
	for _, sd := range rep.DriftedServers {
		ok, err := r.Enqueue(rep.Region, sd.ServerID, rep.Week)
		switch {
		case ok:
			queued++
		case errors.Is(err, ErrQueueFull):
			dropped++
		}
	}
	return queued, dropped
}

// Run drains the refresh queue until ctx is cancelled: it waits for a job,
// then retrains it together with everything queued behind it through the
// same parallel.Pool fan-out Drain uses. Refresh failures are counted, not
// fatal. Run returns ctx.Err; it is meant to be launched on its own goroutine
// (seagull.System.StartRefresher does).
func (r *Refresher) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case j := <-r.jobs:
			r.take(j)
			_ = r.drain(ctx, []job{j})
		}
	}
}

// Drain synchronously processes every job queued at the time of the call,
// fanning the CPU-bound retrains across a bounded parallel.Pool of Workers
// (per-worker snapshot scratch, ctx-aware: cancelling abandons jobs not yet
// claimed while in-flight retrains finish). Jobs queued concurrently with
// the drain stay queued for the next drain or the background Run worker.
// The republished documents are bit-identical to a serial drain — jobs are
// deduplicated per (region, server, week), touch disjoint documents, and
// retrain deterministically — which the parallel-equivalence test pins.
func (r *Refresher) Drain(ctx context.Context) error { return r.drain(ctx, nil) }

// drain claims every queued job on top of batch and retrains them all.
func (r *Refresher) drain(ctx context.Context, batch []job) error {
	for {
		select {
		case j := <-r.jobs:
			r.take(j)
			batch = append(batch, j)
			continue
		default:
		}
		break
	}
	return parallel.ForEachScratchCtx(ctx, r.workers, len(batch),
		func() *[]float64 { return new([]float64) },
		func(i int, scratch *[]float64) error {
			j := batch[i]
			_ = r.refreshCounted(ctx, j.region, j.serverID, j.week, scratch)
			return nil
		})
}

// take clears a job's pending mark once it leaves the queue.
func (r *Refresher) take(j job) {
	r.mu.Lock()
	delete(r.pending, j)
	r.mu.Unlock()
}

// RefreshServer retrains one server's stored prediction from live telemetry
// through the warm pool and republishes the PredictionDoc. The history
// window is the batch pipeline's (pipeline.TrainingWindow), so for identical
// telemetry the refreshed forecast is bit-identical to a full weekly run.
func (r *Refresher) RefreshServer(ctx context.Context, region, serverID string, week int) error {
	r.scratchMu.Lock()
	defer r.scratchMu.Unlock()
	return r.refreshCounted(ctx, region, serverID, week, &r.scratch)
}

// refreshCounted runs one refresh with the given snapshot scratch and folds
// the outcome into the lifetime counters. Parallel drains hand each worker
// its own scratch; the synchronous RefreshServer path shares one under
// scratchMu.
func (r *Refresher) refreshCounted(ctx context.Context, region, serverID string, week int, scratch *[]float64) error {
	tr := r.cfg.Tracer.Start("refresh", "")
	err := r.refresh(ctx, tr, region, serverID, week, scratch)
	r.cfg.Tracer.Finish(tr, 0)
	logger := obs.LoggerOr(r.cfg.Logger)
	switch {
	case err == nil:
		r.refreshed.Add(1)
	case errors.Is(err, ErrInsufficientHistory) || errors.Is(err, ErrNoTelemetry):
		r.skipped.Add(1)
		logger.Debug("refresh skipped",
			"region", region, "server", serverID, "week", week, "reason", err)
	default:
		r.failed.Add(1)
		logger.Warn("refresh failed",
			"region", region, "server", serverID, "week", week, "error", err)
	}
	return err
}

func (r *Refresher) refresh(ctx context.Context, tr *obs.Trace, region, serverID string, week int, scratch *[]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	col := r.db.Collection(pipeline.PredictionsCollection)
	docID := pipeline.DocID(serverID, week)
	var doc pipeline.PredictionDoc
	if err := col.Get(region, docID, &doc); err != nil {
		if errors.Is(err, cosmos.ErrNotFound) {
			return fmt.Errorf("%w: %s %s", ErrNoPrediction, region, docID)
		}
		return err
	}
	interval := time.Duration(doc.IntervalMin) * time.Minute
	if interval <= 0 || interval != r.ing.Interval() {
		return fmt.Errorf("%w: stored interval %v vs ingestor %v", ErrBadInterval, interval, r.ing.Interval())
	}
	ppd := int(24 * time.Hour / interval)

	target := registry.Target{Scenario: pipeline.Scenario, Region: region}
	v, err := r.reg.Active(target)
	if err != nil {
		return err
	}

	// Snapshot the live history (stable copy: training is long, and holding
	// the shard lock would stall ingestion). The scratch buffer is retained
	// across refreshes, so the steady state allocates nothing here.
	sp := tr.Begin(obs.StageSnapshot)
	snap, ok := r.ing.SnapshotInto(serverID, *scratch)
	sp.End()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTelemetry, serverID)
	}
	*scratch = snap.Values

	d := doc.BackupDay.Sub(snap.Start)
	if d < 0 || d%interval != 0 {
		return fmt.Errorf("%w: predicted day %s not aligned with live telemetry starting %s",
			ErrInsufficientHistory, doc.BackupDay.Format(time.RFC3339), snap.Start.Format(time.RFC3339))
	}
	dayIdx := int(d / interval)
	if dayIdx > snap.Len() {
		dayIdx = snap.Len() // history can only use what has arrived
	}
	trainPoints, ok := pipeline.TrainingWindow(dayIdx, ppd)
	if !ok {
		return fmt.Errorf("%w: %s has %d points before %s, need %d",
			ErrInsufficientHistory, serverID, dayIdx, doc.BackupDay.Format(time.RFC3339), pipeline.MinTrainDays*ppd)
	}
	history, err := snap.View(dayIdx-trainPoints, dayIdx)
	if err != nil {
		return err
	}

	sp = tr.Begin(obs.StageCheckout)
	inst, hit, err := r.pool.Checkout(target, v.Number, v.ModelName)
	sp.EndHit(hit)
	if err != nil {
		return err
	}
	defer r.pool.Return(target, v.Number, inst)
	if err := ctx.Err(); err != nil {
		return err
	}
	sp = tr.Begin(obs.StageTrain)
	memoHit, err := inst.TrainOn(history)
	sp.EndHit(memoHit)
	if err != nil {
		return fmt.Errorf("retrain %s with %s: %w", serverID, v.ModelName, err)
	}
	sp = tr.Begin(obs.StageInference)
	pred, err := inst.Model.Forecast(ppd)
	sp.End()
	if err != nil {
		return fmt.Errorf("forecast %s with %s: %w", serverID, v.ModelName, err)
	}
	w := doc.WindowPoints
	if w < 1 {
		w = 1
	}
	if w > ppd {
		w = ppd
	}
	llw, err := metrics.LowestLoadWindow(pred, w)
	if err != nil {
		return err
	}

	doc.Model = v.ModelName
	doc.Values = pred.Values
	doc.LLStart = llw.Start
	doc.LLAvg = llw.AvgLoad
	doc.Refreshes++
	sp = tr.Begin(obs.StageUpsert)
	err = col.Upsert(region, docID, &doc)
	sp.End()
	return err
}

// Stats snapshots the refresher's lifetime counters.
func (r *Refresher) Stats() RefreshStats {
	r.mu.Lock()
	pending := len(r.pending)
	r.mu.Unlock()
	return RefreshStats{
		Queued:    r.queued.Load(),
		Coalesced: r.coalesced.Load(),
		Dropped:   r.dropped.Load(),
		Refreshed: r.refreshed.Load(),
		Skipped:   r.skipped.Load(),
		Failed:    r.failed.Load(),
		Pending:   pending,
	}
}
