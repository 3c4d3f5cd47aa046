// Package seagull is the public API of the Seagull reproduction: an
// infrastructure for load prediction and optimized resource allocation
// (Poppe et al., VLDB 2020).
//
// Seagull ingests per-server CPU telemetry, validates it, classifies servers
// by their activity patterns, trains and deploys forecasting models,
// predicts each server's load 24 hours ahead, and uses the predictions to
// schedule full backups inside each server's lowest-load window. The same
// infrastructure powers a second scenario: preemptive auto-scale of SQL
// databases.
//
// The System type wires every substrate together — data lake, document
// store, model registry, dashboard, pipeline and backup scheduler — over a
// data directory (or fully in temporary storage):
//
//	sys, err := seagull.NewSystem(seagull.SystemConfig{})
//	fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "westus", Servers: 500, Weeks: 4, Seed: 1})
//	sys.LoadFleet(fleet)
//	res, err := sys.RunWeeks("westus", 0, 3, seagull.PipelineConfig{})
//	decisions, err := sys.ScheduleBackups("westus", 3)
//
// See the examples directory for complete programs.
package seagull

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seagull/internal/autoscale"
	"seagull/internal/classify"
	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/insights"
	"seagull/internal/lake"
	"seagull/internal/metrics"
	"seagull/internal/modelpool"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/scheduler"
	"seagull/internal/serving"
	"seagull/internal/simulate"
	"seagull/internal/stream"
	"seagull/internal/timeseries"
)

// Re-exported core types. Aliases keep the public API a single import while
// the implementation stays modular.
type (
	// Series is a uniformly sampled load time series.
	Series = timeseries.Series

	// Fleet is a synthetic regional server population with telemetry.
	Fleet = simulate.Fleet
	// FleetConfig parameterizes fleet generation.
	FleetConfig = simulate.Config
	// Mix is a fleet's class composition (Figure 3 shares by default).
	Mix = simulate.Mix
	// Server is one synthetic server.
	Server = simulate.Server
	// Database is one synthetic SQL database (Appendix A).
	Database = simulate.Database
	// SQLConfig parameterizes SQL database generation.
	SQLConfig = simulate.SQLConfig

	// Model is a pluggable per-server load forecaster.
	Model = forecast.Model

	// MetricsConfig carries the accuracy constants of Definitions 1–9.
	MetricsConfig = metrics.Config
	// Bound is an asymmetric acceptable error bound (Definition 1).
	Bound = metrics.Bound
	// DayResult is a backup-day evaluation (Definitions 2 and 8 combined).
	DayResult = metrics.DayResult
	// FleetSummary aggregates backup-day evaluations over a fleet.
	FleetSummary = metrics.FleetSummary

	// PipelineConfig parameterizes a weekly pipeline run.
	PipelineConfig = pipeline.Config
	// PipelineResult is the outcome of one weekly pipeline run.
	PipelineResult = pipeline.Result
	// PredictionDoc is a stored per-server backup-day prediction.
	PredictionDoc = pipeline.PredictionDoc

	// Decision is one backup-window scheduling outcome.
	Decision = scheduler.Decision
	// Impact aggregates scheduling outcomes (Figure 13(a)).
	Impact = scheduler.Impact
	// TrueDayFunc supplies actual backup-day load for impact evaluation.
	TrueDayFunc = scheduler.TrueDayFunc

	// Category is a server class (Figure 3 taxonomy).
	Category = classify.Category

	// AutoscaleEval is one model's Appendix A evaluation row.
	AutoscaleEval = autoscale.ModelEval
	// AutoscaleConfig parameterizes the Appendix A evaluation.
	AutoscaleConfig = autoscale.EvalConfig

	// Service is the long-lived, concurrency-safe serving layer: the v2
	// prediction protocol over a warm model pool.
	Service = serving.Service
	// ServiceConfig parameterizes the serving layer (request limits,
	// deadlines, warm-pool sizing).
	ServiceConfig = serving.ServiceConfig
	// Client is the typed Go client for the serving endpoints.
	Client = serving.Client

	// Ingestor is the online telemetry ingestion layer: sharded per-server
	// slot rings accepting out-of-order points, with zero-copy live views.
	Ingestor = stream.Ingestor
	// StreamConfig parameterizes the ingestor (slot interval, epoch,
	// retained window).
	StreamConfig = stream.Config
	// DriftDetector compares live telemetry against stored predictions.
	DriftDetector = stream.DriftDetector
	// DriftReport is the outcome of one drift sweep.
	DriftReport = stream.Report
	// Refresher retrains drifted servers from live telemetry and
	// republishes their predictions.
	Refresher = stream.Refresher
	// RefreshConfig parameterizes the shared refresher (drain concurrency,
	// clock, tracing, logging).
	RefreshConfig = stream.RefreshConfig
	// Sweeper is the background drift loop: it periodically discovers each
	// region's latest summarized week and sweeps it for drift with zero
	// client involvement.
	Sweeper = stream.Sweeper
	// SweeperConfig parameterizes the background sweeper (tick interval).
	SweeperConfig = stream.SweeperConfig
	// AppendStatus reports what happened to one ingested point.
	AppendStatus = stream.AppendStatus
	// Durability is the bounded-loss persistence manager for the stream
	// layer: one group-committed WAL plus periodic incremental ring
	// snapshots, replayed on boot so a hard kill loses at most one commit
	// interval of telemetry.
	Durability = stream.Durability
	// DurabilityConfig parameterizes the durability manager (WAL commit
	// interval δ, snapshot cadence, buffer sizing).
	DurabilityConfig = stream.DurabilityConfig
	// RecoveryStats describes one boot-time recovery pass (snapshot shards
	// restored, WAL records replayed, per-file failures).
	RecoveryStats = stream.RecoveryStats
)

// NewClient returns a typed client for a serving endpoint base URL.
func NewClient(baseURL string) *Client { return serving.NewClient(baseURL) }

// Model registry names (Section 5.1's zoo).
const (
	ModelPersistentPrevDay = forecast.NamePersistentPrevDay
	ModelPersistentPrevEq  = forecast.NamePersistentPrevWeek
	ModelPersistentWeekAvg = forecast.NamePersistentWeekAvg
	ModelSSA               = forecast.NameSSA
	ModelFFNN              = forecast.NameFFNN
	ModelAdditive          = forecast.NameAdditive
	ModelARIMA             = forecast.NameARIMA
)

// Server categories (Figure 3).
const (
	CategoryShortLived    = classify.ShortLived
	CategoryStable        = classify.Stable
	CategoryDailyPattern  = classify.DailyPattern
	CategoryWeeklyPattern = classify.WeeklyPattern
	CategoryNoPattern     = classify.NoPattern
)

// StandardModels lists the models compared in Figure 11 (persistent
// forecast, SSA, feed-forward network, additive/Prophet analog).
func StandardModels() []string {
	return append([]string(nil), forecast.StandardNames...)
}

// GenerateFleet builds a deterministic synthetic server fleet.
func GenerateFleet(cfg FleetConfig) *Fleet { return simulate.GenerateFleet(cfg) }

// GenerateSQL builds a deterministic synthetic SQL database population.
func GenerateSQL(cfg SQLConfig) []*Database { return simulate.GenerateSQL(cfg) }

// NewModel builds a forecasting model by registry name.
func NewModel(name string, seed int64) (Model, error) { return forecast.New(name, seed) }

// PredictDay trains a model on history and forecasts the next day.
func PredictDay(m Model, history Series) (Series, error) { return forecast.PredictDay(m, history) }

// DefaultMetrics returns the production accuracy constants (Definitions 1–9).
func DefaultMetrics() MetricsConfig { return metrics.DefaultConfig() }

// EvaluateDay runs the full backup-day evaluation for one server: was the
// lowest-load window chosen correctly (Definition 8) and was the load during
// it predicted accurately (Definition 2)? window is the backup duration in
// observations.
func EvaluateDay(trueDay, predicted Series, window int, cfg MetricsConfig) (DayResult, error) {
	return metrics.EvaluateDay(trueDay, predicted, window, cfg)
}

// Predictable applies Definition 9 to a server's chronological backup-day
// results: every one of the trailing HistoryWeeks evaluations must have a
// correctly chosen window with accurately predicted load.
func Predictable(history []DayResult, cfg MetricsConfig) bool {
	return metrics.Predictable(history, cfg)
}

// BucketRatio returns the Definition 1 metric: the share of predicted points
// within the acceptable error bound of their true counterparts.
func BucketRatio(trueS, predicted Series, b Bound) (float64, error) {
	return metrics.BucketRatio(trueS, predicted, b)
}

// Classify categorizes a server from its load and lifespan in days.
func Classify(load Series, lifespanDays int, cfg MetricsConfig) (Category, error) {
	return classify.Categorize(load, lifespanDays, cfg)
}

// EvaluateImpact classifies scheduling decisions against actual backup-day
// load (Figure 13(a)).
func EvaluateImpact(decisions []Decision, trueDay TrueDayFunc, cfg MetricsConfig) (Impact, error) {
	return scheduler.EvaluateImpact(decisions, trueDay, cfg)
}

// Advice is the outcome of reviewing a customer-selected backup window
// against the predicted lowest-load window (Section 6.2).
type Advice = scheduler.Advice

// AdviseWindow reviews a customer-selected backup window (start index within
// the predicted day, window observations long) and suggests the predicted
// lowest-load window when the customer's choice is significantly worse.
func AdviseWindow(predictedDay Series, customerStart, window int, cfg MetricsConfig) (Advice, error) {
	return scheduler.AdviseWindow(predictedDay, customerStart, window, cfg)
}

// DayChoice is one candidate backup day in the cross-day optimization.
type DayChoice = scheduler.DayChoice

// BestBackupDay implements the paper's Section 6.1 extension: forecast the
// whole next week and pick the backup day whose lowest-load window has the
// least predicted load among accurately predicted days.
func BestBackupDay(m Model, history Series, window int, cfg MetricsConfig) (DayChoice, []DayChoice, error) {
	return scheduler.BestBackupDay(m, history, window, cfg)
}

// CompareAutoscaleModels runs the Appendix A evaluation (Figure 16).
func CompareAutoscaleModels(names []string, dbs []*Database, cfg AutoscaleConfig) ([]AutoscaleEval, error) {
	return autoscale.CompareModels(names, dbs, cfg)
}

// ClassifySQLFleet returns the stable share of a SQL database population
// (Definition 10, Appendix A.1).
func ClassifySQLFleet(dbs []*Database) (stable, total int, err error) {
	var c autoscale.Classifier
	return c.ClassifySQLFleet(dbs)
}

// SystemConfig configures a System.
type SystemConfig struct {
	// DataDir is the root directory for the lake and the document store.
	// Empty means an OS temporary directory (removed by Close).
	DataDir string
	// Replica names this system's shard in a region-sharded fleet. When set,
	// the durability layer namespaces its WAL and ring-snapshot objects under
	// replicas/<Replica>/ in the lake, so N replicas — each owning a
	// consistent-hash shard of servers behind a seagull-router — can share
	// one lake without colliding. Empty (the default) keeps the
	// single-process object names.
	Replica string
	// Persist keeps the document store durable on disk. Without it the
	// document store is memory-only (the lake always uses the file system).
	Persist bool
	// Stream parameterizes the lazily created telemetry ingestor (see
	// System.Stream). The zero value selects five-minute slots, a four-week
	// retained window and the Unix epoch as the slot origin.
	Stream StreamConfig
	// Refresh parameterizes the shared drift refresher (see
	// System.Refresher); the zero value selects the pipeline's production
	// defaults with a serial drain. Set Workers to retrain drifted fleets
	// concurrently on multi-core hosts.
	Refresh RefreshConfig
	// Sweep parameterizes the background drift sweeper (see System.Sweeper);
	// the zero value sweeps every summarized region once a minute once
	// StartSweeper is called.
	Sweep SweeperConfig
}

// System wires all Seagull components over shared storage.
type System struct {
	Lake      *lake.Store
	DB        *cosmos.DB
	Registry  *registry.Registry
	Dashboard *insights.Dashboard
	Pipeline  *pipeline.Pipeline
	Scheduler *scheduler.Scheduler
	Fabric    *scheduler.FabricStore

	cfg     SystemConfig
	dataDir string
	ownsDir bool

	serveOnce sync.Once
	serve     *Service

	streamOnce sync.Once
	stream     *Ingestor

	streamSetOnce sync.Once
	drift         *DriftDetector
	refresher     *Refresher
	sweeper       *Sweeper
	refUnbind     func()

	refMu     sync.Mutex
	refStop   func()
	sweepStop func()
}

// NewSystem builds a ready-to-use system.
func NewSystem(cfg SystemConfig) (*System, error) {
	dir := cfg.DataDir
	owns := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "seagull-*")
		if err != nil {
			return nil, fmt.Errorf("seagull: temp dir: %w", err)
		}
		owns = true
	}
	store, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return nil, err
	}
	cosmosDir := ""
	if cfg.Persist {
		cosmosDir = filepath.Join(dir, "cosmos")
	}
	db, err := cosmos.Open(cosmosDir)
	if err != nil {
		return nil, err
	}
	reg := registry.New(nil)
	dash := insights.New(nil)
	fabric := scheduler.NewFabricStore()
	sys := &System{
		Lake:      store,
		DB:        db,
		Registry:  reg,
		Dashboard: dash,
		Pipeline:  pipeline.New(store, db, reg, dash),
		Scheduler: scheduler.New(db, fabric, metrics.DefaultConfig()),
		Fabric:    fabric,
		cfg:       cfg,
		dataDir:   dir,
		ownsDir:   owns,
	}
	return sys, nil
}

// DataDir returns the system's storage root.
func (s *System) DataDir() string { return s.dataDir }

// Close stops the sweeper and the refresher, flushes the document store and
// removes owned temporary storage.
func (s *System) Close() error {
	s.refMu.Lock()
	stop, sweepStop := s.refStop, s.sweepStop
	s.refMu.Unlock()
	if sweepStop != nil {
		sweepStop()
	}
	if stop != nil {
		stop()
	}
	if s.refUnbind != nil {
		s.refUnbind()
	}
	if err := s.DB.Flush(); err != nil {
		return err
	}
	if s.ownsDir {
		return os.RemoveAll(s.dataDir)
	}
	return nil
}

// LoadFleet extracts a fleet's full telemetry into the lake, one object per
// week — the Load Extraction module (Section 2.2). It returns the number of
// telemetry rows written.
func (s *System) LoadFleet(fleet *Fleet) (int, error) {
	return extract.ExtractAll(s.Lake, fleet)
}

// RunWeek executes one weekly pipeline run.
func (s *System) RunWeek(cfg PipelineConfig) (*PipelineResult, error) {
	return s.Pipeline.RunWeek(context.Background(), cfg)
}

// RunWeeks executes the pipeline for weeks firstWeek..lastWeek (inclusive)
// in one region, returning the final week's result. Earlier weeks build the
// prediction history that Definition 9's predictability gate needs.
func (s *System) RunWeeks(region string, firstWeek, lastWeek int, cfg PipelineConfig) (*PipelineResult, error) {
	var last *PipelineResult
	for w := firstWeek; w <= lastWeek; w++ {
		cfg := cfg
		cfg.Region = region
		cfg.Week = w
		res, err := s.RunWeek(cfg)
		if err != nil {
			return res, err
		}
		last = res
	}
	return last, nil
}

// ScheduleBackups chooses backup windows for every server with a stored
// prediction for week in region (Section 2.3) and records them in the
// fabric property store.
func (s *System) ScheduleBackups(region string, week int) ([]Decision, error) {
	return s.Scheduler.ScheduleWeek(context.Background(), region, week)
}

// Service builds a serving layer over the system's registry and document
// store with the given configuration: the v2 prediction protocol (single,
// batch, advise, models, stored predictions) with a warm model pool. See
// internal/serving and DESIGN.md.
//
// The caller owns the returned Service: each one subscribes its warm pool
// to the registry, so a Service discarded before the System must be
// Close()d or its pool stays pinned by the registry watcher. For the common
// one-service-per-system case use Handler(), which caches a single
// default-configuration Service.
func (s *System) Service(cfg ServiceConfig) *Service {
	return serving.NewService(s.Registry, s.DB, cfg)
}

// Handler returns the REST serving endpoint over the system's registry
// (Section 2.2's deployed-model endpoint) with default service limits and
// the system's stream layer attached (POST /v2/ingest feeds System.Stream;
// sweeps queue into the shared refresher — call StartRefresher to drain it
// in the background). The underlying Service is created once per System and
// reused — repeated calls share one warm model pool and one registry
// watcher.
func (s *System) Handler() http.Handler {
	s.serveOnce.Do(func() {
		ing, det, ref := s.streamSet()
		s.serve = serving.NewService(s.Registry, s.DB, ServiceConfig{
			Ingestor: ing, Drift: det, Refresher: ref, Sweeper: s.sweeper,
		})
	})
	return s.serve.Handler()
}

// Stream returns the system's shared telemetry ingestor, created lazily
// from SystemConfig.Stream — the entry point for live per-server load
// points (the stream layer's counterpart of LoadFleet's batch extracts).
func (s *System) Stream() *Ingestor {
	s.streamOnce.Do(func() { s.stream = stream.NewIngestor(s.cfg.Stream) })
	return s.stream
}

// Ingest rolls one live load point into the system's telemetry stream.
func (s *System) Ingest(serverID string, t time.Time, value float64) AppendStatus {
	return s.Stream().Append(serverID, t, value)
}

// streamSet lazily builds the shared drift detector and refresher. The
// refresher trains through its own warm model pool (a modelpool.Pool like
// the serving layer's, bound to the registry for invalidation on
// promote/rollback) so drift-triggered retrains reuse trained scratch
// without contending with request-serving instances.
func (s *System) streamSet() (*Ingestor, *DriftDetector, *Refresher) {
	s.streamSetOnce.Do(func() {
		ing := s.Stream()
		s.drift = stream.NewDriftDetector(ing, s.DB)
		pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
		s.refUnbind = pool.Bind(s.Registry)
		s.refresher = stream.NewRefresher(ing, s.DB, s.Registry, pool, s.cfg.Refresh)
		s.sweeper = stream.NewSweeper(s.DB, s.drift, s.refresher, s.cfg.Sweep)
	})
	return s.stream, s.drift, s.refresher
}

// Drift returns the system's shared drift detector over the stored
// predictions.
func (s *System) Drift() *DriftDetector {
	_, det, _ := s.streamSet()
	return det
}

// Refresher returns the system's shared drift-refresh worker. Use Enqueue/
// Drain for synchronous control, or StartRefresher for a background worker.
func (s *System) Refresher() *Refresher {
	_, _, ref := s.streamSet()
	return ref
}

// StartRefresher launches the shared refresher's background worker and
// returns a stop function (also invoked by Close). Repeated calls return
// the same stop function while the worker runs.
func (s *System) StartRefresher() (stop func()) {
	return s.startLoop(&s.refStop, s.Refresher().Run)
}

// Sweeper returns the system's shared background drift sweeper: each round
// discovers every region's latest summarized week from the document store,
// sweeps it for drift against the live telemetry and queues drifted servers
// into the shared refresher. Use SweepOnce for synchronous control, or
// StartSweeper for the background loop.
func (s *System) Sweeper() *Sweeper {
	s.streamSet()
	return s.sweeper
}

// StartSweeper launches the background drift sweeper at its configured
// interval (SystemConfig.Sweep; default one minute) and returns a stop
// function (also invoked by Close). Pair it with StartRefresher, which
// drains the refresh queue the sweeper fills. Repeated calls return the same
// stop function while the loop runs.
func (s *System) StartSweeper() (stop func()) {
	return s.startLoop(&s.sweepStop, s.Sweeper().Run)
}

// startLoop runs one background loop on its own goroutine and parks its stop
// function in *slot; while it runs, repeated starts return that function.
func (s *System) startLoop(slot *func(), run func(context.Context) error) (stop func()) {
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if *slot != nil {
		return *slot
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = run(ctx)
	}()
	var once sync.Once
	*slot = func() {
		once.Do(func() {
			cancel()
			<-done
			s.refMu.Lock()
			*slot = nil
			s.refMu.Unlock()
		})
	}
	return *slot
}

// NewDurability builds a durability manager binding the system's stream
// ingestor to its lake: call Recover() before serving, then Start(ctx) to
// run WAL group commits and incremental snapshots in the background, and
// Close() on drain. With a negative SnapshotEvery and no Start it runs
// drain-only: Open, then Close flushes the log and writes the rings once on
// the way down.
func (s *System) NewDurability(cfg DurabilityConfig) *Durability {
	if cfg.Namespace == "" {
		cfg.Namespace = s.cfg.Replica
	}
	return stream.NewDurability(s.Stream(), s.Lake, cfg)
}

// Replica returns the system's shard name in a region-sharded fleet ("" for
// a single-process deployment).
func (s *System) Replica() string { return s.cfg.Replica }

// DashboardSummary returns the aggregated pipeline-run view.
func (s *System) DashboardSummary() insights.Summary {
	return s.Dashboard.Summarize()
}

// FleetTrueDay returns a TrueDayFunc over a fleet's generated telemetry —
// the actuals source used when evaluating scheduling impact.
func FleetTrueDay(fleet *Fleet) TrueDayFunc { return fleet.TrueDay }
