package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/admission"
	"seagull/internal/cosmos"
	"seagull/internal/metrics"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/scheduler"
	"seagull/internal/simclock"
	"seagull/internal/stream"
)

// statusClientClosedRequest is the conventional (nginx) status for a request
// abandoned by the caller; Go's net/http has no constant for it.
const statusClientClosedRequest = 499

// maxHorizon bounds the forecast horizon in observations: two weeks at
// five-minute granularity.
const maxHorizon = 4032

// MaxBatch bounds the servers in one batch predict call. The router holds a
// routed batch to it before splitting, so the limit is the fleet's as well
// as each replica's.
const MaxBatch = 256

// MaxBodyBytes bounds any request body. The router holds inbound bodies to it
// too, so a body the router relays always fits a replica.
const MaxBodyBytes = 64 << 20

// The request limits the service enforces. They are variables only so that
// tests can lower them.
var (
	maxBodyBytes int64 = MaxBodyBytes
	// maxIngestPoints bounds the telemetry points in one /v2/ingest call: one
	// million, ~8 MiB of values, inside the body limit.
	maxIngestPoints = 1 << 20
)

// ServiceConfig parameterizes the serving layer. The zero value selects
// production defaults. /v2/advise judges windows with the paper's accuracy
// constants (metrics.DefaultConfig), a live_history predict needs at least
// one day of live points, a batch carries at most MaxBatch servers, a request
// body at most MaxBodyBytes, and an ingest call at most 1<<20 points. Every
// /v2 route runs behind admission control and under the request deadline.
type ServiceConfig struct {
	// Timeout is the per-request serving deadline. 0 or negative selects the
	// default of 60s.
	Timeout time.Duration
	// Workers bounds the batch fan-out concurrency. 0 means NumCPU.
	Workers int
	// Pool configures the warm model pool.
	Pool modelpool.Config
	// Ingestor, when set, enables the POST /v2/ingest endpoint feeding the
	// stream layer (and live_history predicts); Drift and Refresher
	// additionally let an ingest call run a drift sweep and queue drifted
	// servers for refresh. All three also surface their counters on /varz.
	Ingestor  *stream.Ingestor
	Drift     *stream.DriftDetector
	Refresher *stream.Refresher
	// Sweeper, when set, surfaces the background drift sweeper's counters
	// on /varz. The service never drives the sweeper — its loop runs in the
	// owning process (seagull-serve, or System.StartSweeper).
	Sweeper *stream.Sweeper
	// Durability, when set, surfaces the stream layer's WAL and snapshot
	// counters on /varz. The service never drives it — its tickers run in
	// the owning process.
	Durability *stream.Durability
	// MaxInflight bounds concurrently-executing requests across every
	// admission-controlled endpoint (all of /v2; liveness endpoints
	// are exempt). The adaptive limiter starts here and walks the effective
	// limit down whenever observed latency exceeds the per-class target.
	// 0 or negative selects the default of 256.
	MaxInflight int
	// LatencyTarget is the predict-class latency target the AIMD limiter
	// defends (ingest gets 2x, background 4x). Default 500ms.
	LatencyTarget time.Duration
	// Brownout lets /v2/predict degrade to the persistent previous-day
	// forecast (flagged degraded:true) when the limiter saturates, instead
	// of queueing or shedding — availability traded against accuracy.
	Brownout bool
	// DrainGrace is the drain duration advertised as Retry-After on a
	// draining /readyz, so balancers and clients back off for exactly the
	// grace window instead of guessing. Default 5s.
	DrainGrace time.Duration
	// Clock supplies varz uptime/latency timestamps, batch deadlines and the
	// admission limiter's cooldown clock; nil means the wall clock.
	Clock simclock.Clock
	// Tracer, when set, records a per-request trace for every instrumented
	// endpoint — admission wait, warm-pool checkout, train memo hit/miss and
	// inference spans — served on GET /debug/traces, with request IDs
	// propagated via X-Request-Id. Nil disables tracing; the hot path then
	// pays a single context lookup. Span recording is allocation-free, so a
	// traced warm predict stays inside the untraced allocation budget (the
	// root package's TestAllocCeilings pins this).
	Tracer *obs.Tracer
	// Logger receives structured operational logs: admission sheds and
	// brownout serves (rate-limited to one line per second per endpoint).
	// Nil discards them.
	Logger *slog.Logger
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 500 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	return c
}

// Service is the long-lived serving layer: the v2 prediction protocol
// (single, batch, advise, model listing, stored predictions) over a warm
// model pool. Safe for concurrent use; one Service is meant to serve a
// process's whole traffic.
type Service struct {
	reg      *registry.Registry
	db       *cosmos.DB // optional; nil disables /v2/predictions
	cfg      ServiceConfig
	pool     *modelpool.Pool
	workers  *parallel.Pool
	limiter  *admission.Limiter
	tracer   *obs.Tracer  // nil: tracing disabled (every method is nil-safe)
	logger   *slog.Logger // never nil: discards when unconfigured
	mux      *http.ServeMux
	http     *obs.HTTP // per-endpoint accounting, request IDs, trace start/finish
	ready    atomic.Bool
	degraded atomic.Pointer[string] // non-nil: serving, but restore was partial
	unbind   func()                 // detaches the pool's registry watcher
}

// NewService wires a service over a registry and an optional document store
// and subscribes the warm pool to the registry's deployment changes.
func NewService(reg *registry.Registry, db *cosmos.DB, cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	// A batch checks out one instance per fan-out worker; the per-slot idle
	// bound must cover that width or every batch on a many-core host would
	// discard most of the trained instances it returns.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	s := &Service{
		reg:     reg,
		db:      db,
		cfg:     cfg,
		pool:    modelpool.New(cfg.Pool, max(modelpool.DefaultMaxIdle, workers)),
		workers: parallel.NewPool(cfg.Workers),
		tracer:  cfg.Tracer,
		logger:  obs.LoggerOr(cfg.Logger),
		http:    obs.NewHTTP(cfg.Clock, cfg.Tracer),
	}
	s.unbind = s.pool.Bind(reg)
	s.ready.Store(true)

	// One shared adaptive limiter guards the whole traffic surface; the
	// refresher's sustained-backpressure predicate doubles as an external
	// brownout-entry signal (a saturated refresh queue means the CPUs are
	// already behind on retraining).
	var saturated func() bool
	if cfg.Refresher != nil {
		saturated = cfg.Refresher.Saturated
	}
	s.limiter = admission.NewLimiter(admission.Config{
		MaxInflight: cfg.MaxInflight,
		Target:      cfg.LatencyTarget,
		Brownout:    cfg.Brownout,
		Saturated:   saturated,
		Clock:       cfg.Clock,
	})

	// Every route is instrumented under its route pattern, so /varz reports
	// per-endpoint latency histograms, error counts and in-flight gauges.
	// Traffic-bearing routes additionally pass admission control under a
	// priority class; liveness routes (healthz/readyz/varz) never queue.
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.http.Instrument(pattern, h))
	}
	admit := func(pattern string, class admission.Class, h http.HandlerFunc) {
		handle(pattern, s.admitted(pattern, class, h, nil))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /readyz", s.handleReady)
	handle("GET /varz", s.handleVarz)
	// Observability surfaces: Prometheus exposition of the varz atomics, and
	// the trace ring (recent + slowest views). Like the liveness routes they
	// bypass admission — a scraper must see an overloaded process.
	handle("GET /metrics", s.handleMetrics)
	handle("GET /debug/traces", s.handleTraces)
	// v2 protocol. /v2/predict is the one brownout-capable route: under
	// saturation it degrades to the persistent forecast instead of shedding.
	handle("POST /v2/predict",
		s.admitted("POST /v2/predict", admission.Predict, jsonRoute(s, s.Predict), jsonRoute(s, s.PredictDegraded)))
	admit("POST /v2/predict/batch", admission.Predict, jsonRoute(s, s.PredictBatch))
	admit("POST /v2/advise", admission.Background, jsonRoute(s, s.Advise))
	admit("POST /v2/ingest", admission.Ingest, jsonRoute(s, s.Ingest))
	admit("GET /v2/models", admission.Background, s.handleModelsV2)
	admit("GET /v2/predictions/{region}/{week}", admission.Background, s.handlePredictionsV2)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handler returns the service as an http.Handler (itself).
func (s *Service) Handler() http.Handler { return s }

// Pool exposes the warm model pool (stats, manual invalidation).
func (s *Service) Pool() *modelpool.Pool { return s.pool }

// SetReady flips the /readyz verdict. A service starts ready; servers flip
// it to false while draining during graceful shutdown so load balancers
// stop routing new traffic.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// SetDegraded marks the service as serving in a degraded state (e.g. the
// live window cold-started because its snapshot or WAL failed to restore).
// /readyz keeps answering 200 — the process can serve — but reports the
// status and reason honestly instead of pretending full health; /varz
// carries the same string. Empty clears the mark.
func (s *Service) SetDegraded(reason string) {
	if reason == "" {
		s.degraded.Store(nil)
		return
	}
	s.degraded.Store(&reason)
}

// Degraded returns the degraded reason, or "" when fully healthy.
func (s *Service) Degraded() string {
	if r := s.degraded.Load(); r != nil {
		return *r
	}
	return ""
}

// Close detaches the service from its registry so a discarded service (and
// its warm pool) can be collected while the registry lives on. The service
// keeps answering requests after Close, but its pool no longer learns about
// promotes/rollbacks — call it only when retiring the service. Idempotent.
func (s *Service) Close() { s.unbind() }

// --- core operations (also the benchmark surface: no HTTP involved) ---

// ctxServiceError maps a context error to its wire representation.
func ctxServiceError(err error) *ServiceError {
	if errors.Is(err, context.DeadlineExceeded) {
		return svcErr(CodeDeadline, http.StatusGatewayTimeout, "request deadline exceeded")
	}
	return svcErr(CodeCanceled, statusClientClosedRequest, "request canceled")
}

// validateSeries checks the common history/horizon invariants.
func validateSeries(history SeriesJSON, horizon, windowPoints int) *ServiceError {
	if horizon <= 0 {
		return badRequest("horizon must be positive")
	}
	if horizon > maxHorizon {
		return svcErr(CodeTooLarge, http.StatusRequestEntityTooLarge,
			"horizon %d exceeds the limit of %d observations", horizon, maxHorizon)
	}
	if history.IntervalMin <= 0 || len(history.Values) == 0 {
		return badRequest("history must be a non-empty series with a positive interval")
	}
	if windowPoints < 0 || windowPoints > horizon {
		return badRequest("window_points %d must be within the horizon %d", windowPoints, horizon)
	}
	return nil
}

// active resolves the deployment slot serving (scenario, region).
func (s *Service) active(scenario, region string) (registry.Target, registry.Version, *ServiceError) {
	target := registry.Target{Scenario: scenario, Region: region}
	v, err := s.reg.Active(target)
	if err != nil {
		return target, registry.Version{}, svcErr(CodeNotFound, http.StatusNotFound, "%v", err)
	}
	return target, v, nil
}

// predictWith trains the instance on the item's history and forecasts,
// observing ctx between the phases (models do not take a context; training
// one server is the cancellation granularity). Deterministic-inference
// instances skip the retrain when the history is identical to their last
// trained one (see Instance.TrainOn); the train span's hit flag records
// that memo outcome. tr may be nil (tracing disabled); batch workers record
// into one shared trace concurrently.
func (s *Service) predictWith(ctx context.Context, tr *obs.Trace, inst *modelpool.Instance, history SeriesJSON, horizon, windowPoints int) (SeriesJSON, int, float64, *ServiceError) {
	if err := ctx.Err(); err != nil {
		return SeriesJSON{}, -1, 0, ctxServiceError(err)
	}
	sp := tr.Begin(obs.StageTrain)
	memoHit, err := inst.TrainOn(history.ToSeries())
	sp.EndHit(memoHit)
	if err != nil {
		return SeriesJSON{}, -1, 0, svcErr(CodeUntrainable, http.StatusUnprocessableEntity, "train: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return SeriesJSON{}, -1, 0, ctxServiceError(err)
	}
	sp = tr.Begin(obs.StageInference)
	pred, err := inst.Model.Forecast(horizon)
	sp.End()
	if err != nil {
		return SeriesJSON{}, -1, 0, svcErr(CodeInternal, http.StatusInternalServerError, "forecast: %v", err)
	}
	llStart, llAvg := -1, 0.0
	if windowPoints > 0 {
		ll, err := metrics.LowestLoadWindow(pred, windowPoints)
		if err != nil {
			return SeriesJSON{}, -1, 0, svcErr(CodeInternal, http.StatusInternalServerError, "lowest-load window: %v", err)
		}
		llStart, llAvg = ll.Start, ll.AvgLoad
	}
	return FromSeries(pred), llStart, llAvg, nil
}

// resolveLiveHistory sources a live_history request's training history from
// the attached ingestor's live window (no-op when the request carries its
// own history). Shared by the full predict path and the brownout fallback.
func (s *Service) resolveLiveHistory(req *PredictRequestV2) *ServiceError {
	if !req.LiveHistory {
		return nil
	}
	if s.cfg.Ingestor == nil {
		return svcErr(CodeNotFound, http.StatusNotFound,
			"live_history requires a stream ingestor attached to this service")
	}
	if req.ServerID == "" {
		return badRequest("live_history requires server_id")
	}
	if len(req.History.Values) != 0 {
		return badRequest("live_history and history are mutually exclusive")
	}
	// Stable copy of the live window: training is long and zero-copy
	// views are only valid under the shard lock. Missing slots stay
	// missing; models gap-fill exactly as they do on batch extracts.
	snap, ok := s.cfg.Ingestor.SnapshotInto(req.ServerID, nil)
	if !ok {
		return svcErr(CodeNotFound, http.StatusNotFound,
			"no live telemetry for server %q", req.ServerID)
	}
	// A window thinner than one day fails loudly rather than silently
	// serving a worse forecast (the cold-start symptom after a failed
	// restore).
	if min := int(24 * time.Hour / s.cfg.Ingestor.Interval()); snap.Len() < min {
		return svcErr(CodeInsufficientHistory, http.StatusUnprocessableEntity,
			"live window for %q spans %d observations, below the %d-observation floor (cold-started window?)",
			req.ServerID, snap.Len(), min)
	}
	req.History = FromSeries(snap)
	return nil
}

// Predict serves one forecast through the warm model pool.
func (s *Service) Predict(ctx context.Context, req PredictRequestV2) (PredictResponseV2, *ServiceError) {
	if serr := s.resolveLiveHistory(&req); serr != nil {
		return PredictResponseV2{}, serr
	}
	if serr := validateSeries(req.History, req.Horizon, req.WindowPoints); serr != nil {
		return PredictResponseV2{}, serr
	}
	target, v, serr := s.active(req.Scenario, req.Region)
	if serr != nil {
		return PredictResponseV2{}, serr
	}
	tr := obs.TraceFrom(ctx)
	sp := tr.Begin(obs.StageCheckout)
	inst, hit, err := s.pool.Checkout(target, v.Number, v.ModelName)
	sp.EndHit(hit)
	if err != nil {
		return PredictResponseV2{}, svcErr(CodeInternal, http.StatusInternalServerError, "%v", err)
	}
	forecastJSON, llStart, llAvg, serr := s.predictWith(ctx, tr, inst, req.History, req.Horizon, req.WindowPoints)
	s.pool.Return(target, v.Number, inst)
	if serr != nil {
		return PredictResponseV2{}, serr
	}
	return PredictResponseV2{
		ServerID: req.ServerID,
		Model:    v.ModelName,
		Version:  v.Number,
		Forecast: forecastJSON,
		Pooled:   hit,
		LLStart:  llStart,
		LLAvg:    llAvg,
	}, nil
}

// PredictBatch serves many servers of one deployment slot in a single call.
// Items fan out across the service's worker pool; each worker checks out
// one warm model and retrains it per server (the retrain-equals-fresh
// guarantee makes that equivalent to fresh models).
// Item-level failures are reported per item; cancelling ctx abandons the
// batch and fails the whole call. An item carrying a positive DeadlineMS is
// additionally bounded by its own deadline, measured from the start of the
// batch: a late item fails alone with a deadline_exceeded code while the
// rest of the batch proceeds (deadlines are observed at the train/forecast
// phase boundaries — training one server is the cancellation granularity).
func (s *Service) PredictBatch(ctx context.Context, req BatchRequest) (BatchResponse, *ServiceError) {
	if len(req.Servers) == 0 {
		return BatchResponse{}, badRequest("batch must contain at least one server")
	}
	batchStart := s.cfg.Clock.Now()
	if len(req.Servers) > MaxBatch {
		return BatchResponse{}, svcErr(CodeTooLarge, http.StatusRequestEntityTooLarge,
			"batch of %d servers exceeds the limit of %d", len(req.Servers), MaxBatch)
	}
	target, v, serr := s.active(req.Scenario, req.Region)
	if serr != nil {
		return BatchResponse{}, serr
	}
	// One trace covers the whole batch; workers record spans into it
	// concurrently (span recording is lock-free) and the worker join below
	// happens-before Finish publishes the trace.
	tr := obs.TraceFrom(ctx)

	type workerModel struct {
		inst *modelpool.Instance
		err  error
	}
	var (
		mu      sync.Mutex
		loaned  []*modelpool.Instance
		results = make([]BatchItemResult, len(req.Servers))
	)
	err := parallel.ForEachScratchCtx(ctx, s.workers, len(req.Servers),
		func() *workerModel {
			sp := tr.Begin(obs.StageCheckout)
			inst, hit, err := s.pool.Checkout(target, v.Number, v.ModelName)
			sp.EndHit(hit)
			if err == nil {
				mu.Lock()
				loaned = append(loaned, inst)
				mu.Unlock()
			}
			return &workerModel{inst: inst, err: err}
		},
		func(i int, wm *workerModel) error {
			item := req.Servers[i]
			res := BatchItemResult{ServerID: item.ServerID, LLStart: -1}
			switch {
			case wm.err != nil:
				res.Error = &ErrorBody{Code: CodeInternal, Message: wm.err.Error()}
			default:
				if serr := validateSeries(item.History, item.Horizon, item.WindowPoints); serr != nil {
					res.Error = &ErrorBody{Code: serr.Code, Message: serr.Message}
					break
				}
				itemCtx := ctx
				if item.DeadlineMS > 0 {
					var cancel context.CancelFunc
					itemCtx, cancel = context.WithDeadline(ctx,
						batchStart.Add(time.Duration(item.DeadlineMS)*time.Millisecond))
					defer cancel()
				}
				forecastJSON, llStart, llAvg, serr := s.predictWith(itemCtx, tr, wm.inst, item.History, item.Horizon, item.WindowPoints)
				if serr != nil {
					res.Error = &ErrorBody{Code: serr.Code, Message: serr.Message}
					break
				}
				res.Forecast, res.LLStart, res.LLAvg = &forecastJSON, llStart, llAvg
			}
			results[i] = res
			return nil
		})
	for _, inst := range loaned {
		s.pool.Return(target, v.Number, inst)
	}
	if err != nil {
		if ctx.Err() != nil {
			return BatchResponse{}, ctxServiceError(ctx.Err())
		}
		return BatchResponse{}, svcErr(CodeInternal, http.StatusInternalServerError, "%v", err)
	}

	resp := BatchResponse{Model: v.ModelName, Version: v.Number, Results: results}
	for i := range results {
		if results[i].Error != nil {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	return resp, nil
}

// Advise reviews a customer-selected backup window against the predicted
// lowest-load window (Section 6.2).
func (s *Service) Advise(_ context.Context, req AdviseRequest) (AdviseResponse, *ServiceError) {
	if req.PredictedDay.IntervalMin <= 0 || len(req.PredictedDay.Values) == 0 {
		return AdviseResponse{}, badRequest("predicted_day must be a non-empty series with a positive interval")
	}
	if req.WindowPoints <= 0 || req.WindowPoints > len(req.PredictedDay.Values) {
		return AdviseResponse{}, badRequest("window_points %d must be within the predicted day of %d observations",
			req.WindowPoints, len(req.PredictedDay.Values))
	}
	adv, err := scheduler.AdviseWindow(req.PredictedDay.ToSeries(), req.CustomerStart, req.WindowPoints, metrics.DefaultConfig())
	if err != nil {
		return AdviseResponse{}, badRequest("advise: %v", err)
	}
	return AdviseResponse{
		KeepCurrent:    adv.KeepCurrent,
		SuggestedStart: adv.SuggestedStart,
		CurrentAvg:     adv.CurrentAvg,
		SuggestedAvg:   adv.SuggestedAvg,
	}, nil
}

// ModelList snapshots every deployment slot's active version.
func (s *Service) ModelList() []ModelInfo {
	var out []ModelInfo
	for _, t := range s.reg.Targets() {
		v, err := s.reg.Active(t)
		if err != nil {
			continue
		}
		out = append(out, ModelInfo{
			Scenario: t.Scenario, Region: t.Region,
			Model: v.ModelName, Version: v.Number, Accuracy: v.Accuracy,
		})
	}
	return out
}

// StoredPredictions returns the pipeline's stored PredictionDocs for one
// (region, week) from the document store.
func (s *Service) StoredPredictions(region string, week int) ([]*pipeline.PredictionDoc, *ServiceError) {
	if s.db == nil {
		return nil, svcErr(CodeNotFound, http.StatusNotFound, "no document store attached to this service")
	}
	var docs []*pipeline.PredictionDoc
	// The pipeline keys predictions by pipeline.DocID; matching the
	// id suffix first avoids unmarshalling every other week's documents in
	// a region partition that accumulates weeks. The decoded Week is still
	// checked, so a foreign id scheme degrades to a filter, not a wrong
	// answer.
	weekSuffix := pipeline.DocID("", week)
	err := s.db.Collection(pipeline.PredictionsCollection).Query(region, func(id string, body json.RawMessage) error {
		if !strings.HasSuffix(id, weekSuffix) {
			return nil
		}
		var pd pipeline.PredictionDoc
		if err := json.Unmarshal(body, &pd); err != nil {
			return fmt.Errorf("decode prediction %s: %w", id, err)
		}
		if pd.Week == week {
			docs = append(docs, &pd)
		}
		return nil
	})
	if err != nil {
		return nil, svcErr(CodeInternal, http.StatusInternalServerError, "%v", err)
	}
	return docs, nil
}

// --- HTTP plumbing ---

// requestContext applies the service deadline to the caller's context.
func (s *Service) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.Timeout)
}

func writeV2Error(w http.ResponseWriter, serr *ServiceError) {
	if sec := retryAfterSeconds(serr.RetryAfter); sec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(sec))
	}
	writeJSON(w, serr.Status, errorEnvelope{Error: ErrorBody{Code: serr.Code, Message: serr.Message}})
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		// Advertise the drain window so balancers and the client back off
		// for exactly as long as the drain lasts, not a guessed jitter.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.DrainGrace)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if reason := s.Degraded(); reason != "" {
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// jsonRoute is the one POST route: decode the body under the size limit,
// apply the request deadline, run op, and answer with its reply or the error
// envelope. Every JSON endpoint is this function over a different op.
func jsonRoute[Req, Resp any](s *Service, op func(context.Context, Req) (Resp, *ServiceError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if serr := DecodeRequest(w, r, &req); serr != nil {
			writeV2Error(w, serr)
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		resp, serr := op(ctx, req)
		if serr != nil {
			writeV2Error(w, serr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Service) handleModelsV2(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponseV2{Models: s.ModelList(), Pool: s.pool.Stats()})
}

func (s *Service) handlePredictionsV2(w http.ResponseWriter, r *http.Request) {
	region := r.PathValue("region")
	week, err := strconv.Atoi(r.PathValue("week"))
	if err != nil {
		writeV2Error(w, badRequest("week must be an integer: %v", err))
		return
	}
	docs, serr := s.StoredPredictions(region, week)
	if serr != nil {
		writeV2Error(w, serr)
		return
	}
	if docs == nil {
		docs = []*pipeline.PredictionDoc{}
	}
	writeJSON(w, http.StatusOK, PredictionsResponse{Region: region, Week: week, Predictions: docs})
}
