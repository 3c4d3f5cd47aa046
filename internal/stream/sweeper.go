package stream

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/obs"
	"seagull/internal/pipeline"
	"seagull/internal/simclock"
)

// Sweeper closes the drift loop with zero client involvement: before it, a
// drift sweep only ran when an ingest request attached a `sweep` clause, so
// an operatorless deployment could watch telemetry stream in forever without
// ever noticing its predictions had gone stale. The sweeper is a
// ticker-driven background loop that discovers, per region, the most recent
// week the weekly pipeline summarized, sweeps that week's stored predictions
// against the live actuals, and queues whatever drifted into the Refresher.
//
// Discovery reads the cosmos summaries collection (one SummaryDoc per
// pipeline run, id "week-NNNN" partitioned by region), which makes the
// sweeper self-configuring: regions appear as soon as their first weekly run
// lands, and each region is judged on its own latest week — no flag lists
// the fleet.

// SweeperConfig parameterizes the background sweeper. The zero value sweeps
// every summarized region once a minute.
type SweeperConfig struct {
	// Interval is the tick period. Default one minute.
	Interval time.Duration
	// Clock paces Run's ticker; nil means the wall clock.
	Clock simclock.Clock
	// Tracer, when non-nil, records one "sweep" trace per round with a span
	// per region swept.
	Tracer *obs.Tracer
	// Logger, when non-nil, reports sweep-round failures from Run (SweepOnce
	// already counts them; without a logger they are otherwise invisible to
	// an operator).
	Logger *slog.Logger
}

func (c SweeperConfig) withDefaults() SweeperConfig {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// SweeperStats snapshots the sweeper's lifetime counters.
type SweeperStats struct {
	// Ticks counts completed sweep rounds (one round visits every region).
	Ticks uint64 `json:"ticks" metric:"counter seagull_sweeper_ticks_total Completed background sweep rounds."`
	// Regions counts region sweeps across all rounds.
	Regions uint64 `json:"regions" metric:"counter seagull_sweeper_regions_total Region sweeps across all rounds."`
	// Drifted counts drifted servers found by background sweeps.
	Drifted uint64 `json:"drifted" metric:"counter seagull_sweeper_drifted_total Drifted servers found by background sweeps."`
	// Queued counts drifted servers newly queued for refresh.
	Queued uint64 `json:"queued" metric:"counter seagull_sweeper_queued_total Drifted servers newly queued for refresh."`
	// Dropped counts drifted servers the full refresh queue rejected — the
	// backpressure signal; they are re-found on the next tick.
	Dropped uint64 `json:"dropped" metric:"counter seagull_sweeper_dropped_total Drifted servers rejected by a full refresh queue."`
	// Paused counts rounds skipped because the refresher reported sustained
	// Dropped backpressure (Refresher.Saturated) — sweeping while the queue
	// rejects everything only re-finds servers it cannot queue.
	Paused uint64 `json:"paused" metric:"counter seagull_sweeper_paused_total Sweep rounds skipped under refresh backpressure."`
	// Errors counts failed region sweeps (kept counting, never fatal).
	Errors uint64 `json:"errors" metric:"counter seagull_sweeper_errors_total Failed region sweeps."`
}

// Add folds another sweeper's snapshot into s, for fleet-wide totals.
func (s *SweeperStats) Add(o SweeperStats) {
	s.Ticks += o.Ticks
	s.Regions += o.Regions
	s.Drifted += o.Drifted
	s.Queued += o.Queued
	s.Dropped += o.Dropped
	s.Paused += o.Paused
	s.Errors += o.Errors
}

// Sweeper periodically sweeps the latest summarized week of every region for
// drift and queues drifted servers into the refresher. Safe for concurrent
// use; Run is meant to be launched on its own goroutine
// (seagull.System.StartSweeper does).
type Sweeper struct {
	db  *cosmos.DB
	det *DriftDetector
	ref *Refresher
	cfg SweeperConfig

	ticks   atomic.Uint64
	regions atomic.Uint64
	drifted atomic.Uint64
	queued  atomic.Uint64
	dropped atomic.Uint64
	paused  atomic.Uint64
	errs    atomic.Uint64
}

// NewSweeper wires a sweeper over the document store (for week discovery),
// a drift detector and a refresher. ref may be nil: sweeps then only count
// drift without queueing refreshes (a monitoring-only deployment).
func NewSweeper(db *cosmos.DB, det *DriftDetector, ref *Refresher, cfg SweeperConfig) *Sweeper {
	return &Sweeper{db: db, det: det, ref: ref, cfg: cfg.withDefaults()}
}

// Interval returns the configured tick period.
func (s *Sweeper) Interval() time.Duration { return s.cfg.Interval }

// latestWeek finds the most recent week with a stored summary for region;
// ok is false when the region has none (nothing to judge yet).
func (s *Sweeper) latestWeek(region string) (week int, ok bool) {
	for _, id := range s.db.Collection(pipeline.SummariesCollection).IDs(region) {
		rest, found := strings.CutPrefix(id, "week-")
		if !found {
			continue
		}
		w, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		if !ok || w > week {
			week, ok = w, true
		}
	}
	return week, ok
}

// SweepOnce runs one background round: every region with a stored weekly
// summary is swept at its latest summarized week, and drifted servers are
// queued for refresh. Per-region sweep failures are counted and skipped so
// one bad region cannot starve the rest; the first error is returned for
// logging. Cancelling ctx stops between regions.
func (s *Sweeper) SweepOnce(ctx context.Context) error {
	// Under sustained refresh-queue backpressure a sweep cannot queue what it
	// finds; pause the round and let the queue drain. Drifted servers stay
	// drifted and are re-found by the first unpaused round.
	if s.ref != nil && s.ref.Saturated() {
		s.paused.Add(1)
		return nil
	}
	tr := s.cfg.Tracer.Start("sweep", "")
	defer func() { s.cfg.Tracer.Finish(tr, 0) }()
	var firstErr error
	for _, region := range s.db.Collection(pipeline.SummariesCollection).Partitions() {
		if err := ctx.Err(); err != nil {
			return err
		}
		week, ok := s.latestWeek(region)
		if !ok {
			continue
		}
		sp := tr.Begin(obs.StageSweep)
		rep, err := s.det.Sweep(ctx, region, week)
		sp.End()
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			s.errs.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep %s week %d: %w", region, week, err)
			}
			continue
		}
		s.regions.Add(1)
		s.drifted.Add(uint64(rep.Drifted))
		if s.ref != nil {
			queued, dropped := s.ref.EnqueueReport(rep)
			s.queued.Add(uint64(queued))
			s.dropped.Add(uint64(dropped))
		}
	}
	s.ticks.Add(1)
	return firstErr
}

// Run sweeps on every tick until ctx is cancelled, then returns ctx.Err().
// Sweep errors are counted in Stats and logged, never fatal.
func (s *Sweeper) Run(ctx context.Context) error {
	logger := obs.LoggerOr(s.cfg.Logger)
	ticker := s.cfg.Clock.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C():
			if err := s.SweepOnce(ctx); err != nil && ctx.Err() == nil {
				logger.Warn("background sweep failed", "error", err)
			}
		}
	}
}

// Stats snapshots the lifetime counters.
func (s *Sweeper) Stats() SweeperStats {
	return SweeperStats{
		Ticks:   s.ticks.Load(),
		Regions: s.regions.Load(),
		Drifted: s.drifted.Load(),
		Queued:  s.queued.Load(),
		Dropped: s.dropped.Load(),
		Paused:  s.paused.Load(),
		Errors:  s.errs.Load(),
	}
}
