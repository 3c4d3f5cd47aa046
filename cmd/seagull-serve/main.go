// Command seagull-serve runs Seagull as an actual server: it wires a System
// (lake, document store, model registry, pipeline, scheduler) behind the
// serving layer's v2 REST protocol, with a warm model pool, the online
// telemetry stream (live ingest + drift-triggered refresh), durable ring
// snapshots, a background drift sweeper, an optional weekly pipeline cron,
// readiness reporting and graceful shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	seagull-serve -addr :8080 -deploy backup/westus=pf-prev-day,backup/eastus=nimbus-ssa
//	seagull-serve -addr :8080 -demo          # seed a demo fleet + pipeline run
//	seagull-serve -addr :8080 -demo -cron    # + recurring weekly runs, no operator
//	seagull-serve -data ./seagull-data -persist
//
// Endpoints: GET /healthz, GET /readyz, GET /varz, POST /v2/predict,
// POST /v2/predict/batch, POST /v2/advise, POST /v2/ingest, GET /v2/models,
// GET /v2/predictions/{region}/{week}.
// See README.md ("Operations guide") for the full flag and /varz reference.
//
// The stream layer (on by default, -stream=false to disable) accepts live
// telemetry on POST /v2/ingest; a request carrying a "sweep" clause checks
// the stored predictions of one (region, week) against the live actuals and
// queues drifted servers for background retraining through the warm pool.
// The same loop also runs itself: every -sweep-interval the background
// sweeper discovers each region's latest summarized week from the document
// store and sweeps it with zero client involvement, fanning the resulting
// retrains across -refresh-workers. -cron re-runs the weekly pipeline per
// deployed backup region as each dataset week elapses, so deployments
// refresh without an operator.
//
// Every endpoint runs behind adaptive admission control (-max-inflight,
// -latency-target): an AIMD limiter bounds in-flight requests, prioritized
// shedding answers overload with 503/429 + Retry-After (predict > ingest >
// background; liveness endpoints exempt), and -brownout degrades saturated
// /v2/predict traffic to the persistent forecast instead of refusing it.
// See README.md ("Overload behavior").
//
// On SIGTERM the server flips /readyz to draining, stops accepting new
// connections, waits up to -drain for in-flight requests, snapshots the
// live telemetry rings to the lake (-snapshot, on by default; restored on
// the next boot so the live window survives restarts) and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"seagull"
	"seagull/internal/obs"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seagull-serve: ")

	var cfg serveConfig
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&cfg.Deploy, "deploy", "backup/westus=pf-prev-day",
		"comma-separated scenario/region=model deployments")
	flag.StringVar(&cfg.DataDir, "data", "", "data directory (empty = temporary)")
	flag.BoolVar(&cfg.Persist, "persist", false, "keep the document store durable on disk")
	flag.BoolVar(&cfg.Demo, "demo", false,
		"seed a demo fleet for the first deployment's region and run one pipeline week "+
			"so /v2/predictions has content")
	flag.DurationVar(&cfg.Drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.DurationVar(&cfg.Grace, "grace", 0,
		"delay between flipping /readyz to draining and closing the listener, so load "+
			"balancers observe the drain before connections are refused (set to your probe interval)")
	flag.DurationVar(&cfg.Timeout, "timeout", 60*time.Second, "per-request serving deadline")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 0,
		"adaptive admission control: ceiling on concurrently served requests "+
			"(0 = default 256; admission control is always on)")
	flag.DurationVar(&cfg.LatencyTarget, "latency-target", 0,
		"admission latency target for predict traffic (ingest 2x, background 4x); the "+
			"limiter backs off when served latency exceeds it (0 = default 500ms)")
	flag.BoolVar(&cfg.Brownout, "brownout", false,
		"serve saturated /v2/predict traffic from the persistent-forecast fallback "+
			"(flagged degraded:true) instead of shedding it")
	flag.BoolVar(&cfg.Stream, "stream", true, "enable the online telemetry stream (POST /v2/ingest + drift refresh)")
	flag.BoolVar(&cfg.Snapshot, "snapshot", true,
		"restore the live telemetry rings from the lake on startup and persist them while running, "+
			"so the stream window survives restarts (requires -stream; pair with -data for durability)")
	flag.DurationVar(&cfg.WALCommit, "wal-commit", 100*time.Millisecond,
		"WAL group-commit interval: the bounded-loss δ in restore ≥ T-δ (requires -snapshot)")
	flag.DurationVar(&cfg.SnapshotEvery, "snapshot-interval", 30*time.Second,
		"incremental ring-snapshot interval; unchanged shards are skipped (negative = drain-only snapshots)")
	flag.DurationVar(&cfg.SweepInterval, "sweep-interval", time.Minute,
		"background drift sweeper tick: every interval, sweep each region's latest summarized week "+
			"against live telemetry and queue drifted servers for refresh (0 disables; requires -stream)")
	flag.IntVar(&cfg.RefreshWorkers, "refresh-workers", 0,
		"concurrent drift retrains in the refresher (0 = one per CPU; 1 = serial)")
	flag.BoolVar(&cfg.Cron, "cron", false, "run the weekly pipeline automatically for every backup deployment region")
	flag.StringVar(&cfg.CronEpoch, "cron-epoch", "2019-12-01T00:00:00Z",
		"dataset epoch (RFC3339): week N covers [epoch+N·week, epoch+(N+1)·week)")
	flag.IntVar(&cfg.CronFirst, "cron-first", 1, "first week the cron processes")
	flag.IntVar(&cfg.CronLast, "cron-last", 1, "last week the cron processes (inclusive)")
	flag.StringVar(&cfg.LogFormat, "log", "text", "structured log format: text or json")
	flag.StringVar(&cfg.LogLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.DurationVar(&cfg.SlowRequest, "slow-request", time.Second,
		"log any request slower than this with its full span breakdown (0 disables the slow log; "+
			"tracing and GET /debug/traces stay on)")
	flag.BoolVar(&cfg.Pprof, "pprof", false,
		"mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints "+
			"bypass admission control)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := serve(ctx, cfg, ln, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// serveConfig carries everything serve needs; main fills it from flags and
// the smoke test builds it directly.
type serveConfig struct {
	Deploy  string
	DataDir string
	Persist bool
	Demo    bool
	Drain   time.Duration
	Grace   time.Duration
	Timeout time.Duration
	// MaxInflight caps concurrently served requests under the adaptive
	// admission limiter (0 = service default; negative is refused).
	MaxInflight int
	// LatencyTarget is the admission AIMD target for predict traffic.
	LatencyTarget time.Duration
	// Brownout degrades saturated /v2/predict to the persistent forecast
	// instead of shedding.
	Brownout bool
	Stream   bool
	// Snapshot restores the telemetry rings from the lake on startup and
	// persists them while running + on drain (stream layer only), with a
	// write-ahead log between snapshots so a hard kill loses at most
	// WALCommit worth of telemetry.
	Snapshot bool
	// WALCommit is the WAL group-commit interval — the bounded-loss δ.
	WALCommit time.Duration
	// SnapshotEvery is the incremental snapshot cadence (negative disables
	// the ticker, leaving drain-time snapshots only).
	SnapshotEvery time.Duration
	// SweepInterval ticks the background drift sweeper; 0 disables it.
	SweepInterval time.Duration
	// RefreshWorkers bounds concurrent drift retrains (0 = one per CPU).
	RefreshWorkers int
	Cron           bool
	CronEpoch      string
	CronFirst      int
	CronLast       int
	// LogFormat/LogLevel configure the structured logger ("" = text/info).
	LogFormat string
	LogLevel  string
	// SlowRequest is the threshold above which a finished request logs its
	// full span breakdown (0 disables the slow log, not tracing).
	SlowRequest time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// serve builds the system, wires the service over ln and blocks until ctx is
// cancelled (SIGINT/SIGTERM in production), then drains gracefully. It owns
// the listener.
func serve(ctx context.Context, cfg serveConfig, ln net.Listener, out io.Writer) error {
	if cfg.Persist && cfg.DataDir == "" {
		// Without -data the system owns a temp dir and removes it on Close,
		// which would silently delete the "durable" store on shutdown.
		return fmt.Errorf("-persist requires -data: a temporary data directory is removed on shutdown")
	}
	if cfg.MaxInflight < 0 {
		// The service reads a negative ceiling as its default; an operator's
		// stale -1 kill switch must fail loudly, not silently become 256.
		return fmt.Errorf("-max-inflight must not be negative (got %d): admission control is always on; 0 selects the default",
			cfg.MaxInflight)
	}
	logger, err := obs.NewLogger(out, cfg.LogFormat, cfg.LogLevel)
	if err != nil {
		return err
	}
	// One tracer serves the whole process: HTTP requests, background sweeps
	// and drift refreshes all record into the same ring, so /debug/traces
	// shows the serving and stream sides of one overload event together.
	tracer := obs.NewTracer(obs.TracerConfig{
		SlowThreshold: cfg.SlowRequest,
		Logger:        logger,
	})
	workers := cfg.RefreshWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sys, err := seagull.NewSystem(seagull.SystemConfig{
		DataDir: cfg.DataDir,
		Persist: cfg.Persist,
		Refresh: seagull.RefreshConfig{Workers: workers, Tracer: tracer, Logger: logger},
		Sweep:   seagull.SweeperConfig{Interval: cfg.SweepInterval, Tracer: tracer, Logger: logger},
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	slots, err := parseDeployments(cfg.Deploy)
	if err != nil {
		return err
	}
	for _, d := range slots {
		v := sys.Registry.Deploy(registry.Target{Scenario: d.scenario, Region: d.region}, d.model, "seagull-serve")
		logger.Info("deployed", "model", d.model, "version", v, "scenario", d.scenario, "region", d.region)
	}

	if cfg.Demo && len(slots) > 0 {
		region := slots[0].region
		fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: region, Servers: 30, Weeks: 2, Seed: 1})
		if _, err := sys.LoadFleet(fleet); err != nil {
			return err
		}
		res, err := sys.Pipeline.RunWeek(ctx, seagull.PipelineConfig{Region: region, Week: 1, ModelName: slots[0].model})
		if err != nil {
			return err
		}
		logger.Info("demo pipeline complete", "region", region, "week", 1, "predicted", res.Predicted)
	}

	svcCfg := seagull.ServiceConfig{
		Timeout:       cfg.Timeout,
		MaxInflight:   cfg.MaxInflight,
		LatencyTarget: cfg.LatencyTarget,
		Brownout:      cfg.Brownout,
		DrainGrace:    cfg.Grace,
		Tracer:        tracer,
		Logger:        logger,
	}
	var dur *seagull.Durability
	var rec seagull.RecoveryStats
	if cfg.Stream {
		// The shared stream set: live ingest on /v2/ingest, drift sweeps,
		// and a background refresher retraining drifted servers through a
		// registry-bound warm pool (stopped by sys.Close on the way out).
		svcCfg.Ingestor = sys.Stream()
		svcCfg.Drift = sys.Drift()
		svcCfg.Refresher = sys.Refresher()
		svcCfg.Sweeper = sys.Sweeper()
		sys.StartRefresher()
		logger.Info("stream layer enabled", "ingest", "POST /v2/ingest", "refresh_workers", workers)
		if cfg.Snapshot {
			// Bounded-loss durability: replay the previous run's per-shard
			// snapshots and WALs, then keep group-committing appends and
			// snapshotting changed shards in the background. A missing object
			// is the normal first boot; a damaged one is skipped, recorded in
			// the recovery stats, and surfaced as a degraded /readyz — stale
			// durable state must never block a restart.
			if n, err := sys.Lake.SweepTempObjects(); err != nil {
				logger.Warn("lake temp sweep failed", "error", err)
			} else if n > 0 {
				logger.Info("lake temp sweep removed staging files", "count", n)
			}
			dur = sys.NewDurability(seagull.DurabilityConfig{
				CommitEvery:   cfg.WALCommit,
				SnapshotEvery: cfg.SnapshotEvery,
			})
			if rec, err = dur.Recover(); err != nil {
				return err
			}
			logger.Info("stream recovery complete",
				"outcome", rec.String(),
				"servers", rec.Servers,
				"wal_records", rec.WALRecords,
				"failures", len(rec.Failures))
			svcCfg.Durability = dur
		}
		if cfg.SweepInterval > 0 {
			sys.StartSweeper()
			logger.Info("background drift sweeper started", "interval", cfg.SweepInterval)
		}
	}
	svc := sys.Service(svcCfg)
	mode := "shed"
	if cfg.Brownout {
		mode = "brownout"
	}
	adm := svc.VarzSnapshot().Admission
	logger.Info("admission control enabled",
		"max_inflight", adm.MaxInflight,
		"latency_target_ms", adm.Endpoints["POST /v2/predict"].TargetMs,
		"saturated_predicts", mode)
	if rec.Degraded() {
		// Keep serving what survived, but say so on /readyz and /varz: live
		// windows touched by the failed objects are cold-started, so their
		// live_history predicts may hit the insufficient_history floor.
		logger.Warn("recovery was partial; serving degraded", "outcome", rec.String())
		svc.SetDegraded("degraded: live window cold-started: " + rec.String())
	}
	if dur != nil {
		if err := dur.Start(ctx); err != nil {
			return err
		}
	}

	var crons []*pipeline.Cron
	if cfg.Cron {
		epoch, err := time.Parse(time.RFC3339, cfg.CronEpoch)
		if err != nil {
			return fmt.Errorf("-cron-epoch: %w", err)
		}
		// One cron per backup deployment: each region's weekly runs retrain
		// the model the operator deployed for *that* region (RunWeek deploys
		// its configured model, so sharing one model across regions would
		// silently flip the others' deployments).
		var regions []string
		for _, d := range slots {
			if d.scenario != pipeline.Scenario {
				continue
			}
			regions = append(regions, d.region)
			c := pipeline.NewCron(sys.Pipeline, pipeline.CronConfig{
				Regions: []string{d.region}, Start: epoch,
				FirstWeek: cfg.CronFirst, LastWeek: cfg.CronLast,
				Base: pipeline.Config{ModelName: d.model},
			})
			c.Start()
			crons = append(crons, c)
		}
		if len(crons) == 0 {
			return fmt.Errorf("-cron requires at least one %s/<region> deployment", pipeline.Scenario)
		}
		logger.Info("pipeline cron started",
			"first_week", cfg.CronFirst, "last_week", cfg.CronLast,
			"regions", strings.Join(regions, ","), "epoch", epoch.Format(time.RFC3339))
	}

	// Profiling endpoints are opt-in and mounted on an outer mux: they must
	// bypass the service's admission control (an operator profiles precisely
	// when the limiter is shedding), but exposing them unconditionally would
	// hand every client a CPU-burning endpoint.
	var handler http.Handler = svc
	if cfg.Pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		if err := server.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	logger.Info("serving", "addr", ln.Addr().String(),
		"endpoints", "v2; GET /healthz, GET /readyz, GET /varz, GET /metrics, GET /debug/traces")

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop advertising readiness, hold the listener open
	// for the grace period so readiness probes can observe the draining
	// state, then let in-flight requests finish under the drain budget.
	logger.Info("shutdown: draining", "drain", cfg.Drain, "grace", cfg.Grace)
	for _, c := range crons {
		c.Stop()
	}
	svc.SetReady(false)
	if cfg.Grace > 0 {
		time.Sleep(cfg.Grace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
	defer cancel()
	shutdownErr := server.Shutdown(shutdownCtx)
	if dur != nil {
		// On a clean drain the listener is closed and in-flight requests
		// have finished, so the rings are quiescent: Close flushes the last
		// buffered appends to the WALs, snapshots every changed shard, and
		// truncates the logs — the next boot restores from snapshots alone.
		// On a blown drain budget the capture is merely approximate, but an
		// unclean shutdown is precisely when losing the window would hurt
		// most, so the state is persisted either way; snapshot replaces are
		// atomic, so a crash here leaves the previous generation.
		if err := dur.Close(); err != nil {
			if shutdownErr != nil {
				return fmt.Errorf("shutdown: %v; stream persistence: %w", shutdownErr, err)
			}
			return fmt.Errorf("stream persistence: %w", err)
		}
		logger.Info("stream state persisted", "servers", sys.Stream().Stats().Servers)
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	if err := <-errCh; err != nil {
		return err
	}
	logger.Info("shutdown: clean")
	return nil
}

type deployment struct {
	scenario, region, model string
}

// parseDeployments parses "scenario/region=model,..." specs.
func parseDeployments(spec string) ([]deployment, error) {
	var out []deployment
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		slot, model, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("bad deployment %q (want scenario/region=model)", item)
		}
		scenario, region, ok := strings.Cut(slot, "/")
		if !ok {
			return nil, fmt.Errorf("bad deployment slot %q (want scenario/region)", slot)
		}
		out = append(out, deployment{scenario: scenario, region: region, model: model})
	}
	return out, nil
}
