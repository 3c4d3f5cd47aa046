package serving

import (
	"context"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"seagull/internal/admission"
	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/obs"
)

// This file wires the adaptive admission layer (internal/admission) around
// the HTTP surface. One shared Limiter protects the process — the CPU pool
// is the contended resource, so a single limit with class-prioritized
// queueing beats per-endpoint limits that would let background traffic
// starve predicts. Liveness endpoints (/healthz, /readyz, /varz) bypass
// admission entirely: an operator must be able to see an overloaded process.
//
// Per class, the latency target scales from the configured predict target:
// ingest tolerates 2x (clients hold buffered telemetry and re-send),
// background 4x (advise/models/predictions are not on any serving SLO).

// classTarget resolves a priority class's latency target from the predict
// target.
func classTarget(base time.Duration, class admission.Class) time.Duration {
	switch class {
	case admission.Predict:
		return base
	case admission.Ingest:
		return 2 * base
	default:
		return 4 * base
	}
}

// admitted wraps h with admission control under the given endpoint name and
// priority class. A non-nil degraded handler marks the endpoint
// brownout-capable: under saturation its requests are served the cheap
// fallback instead of queueing behind the storm or being shed.
func (s *Service) admitted(pattern string, class admission.Class, h, degraded http.HandlerFunc) http.HandlerFunc {
	ep := s.limiter.Endpoint(pattern, class, classTarget(s.cfg.LatencyTarget, class))
	allowDegrade := degraded != nil
	var lastShedLog atomic.Int64 // unix nanos of the last shed/brownout log line
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.TraceFrom(r.Context())
		sp := tr.Begin(obs.StageAdmission)
		tk, res := ep.Acquire(r.Context(), allowDegrade)
		sp.End()
		switch res.Verdict {
		case admission.Admitted:
			defer tk.Release()
			h(w, r)
		case admission.Degraded:
			s.logShed(&lastShedLog, "brownout fallback", pattern, tr, res)
			degraded(w, r)
		default:
			s.logShed(&lastShedLog, "request shed", pattern, tr, res)
			writeOverload(w, class, res)
		}
	}
}

// logShed emits one structured line for a shed or brownout verdict,
// rate-limited to roughly one per second per endpoint — overload produces
// thousands of sheds per second and the log must not amplify the storm.
func (s *Service) logShed(last *atomic.Int64, msg, pattern string, tr *obs.Trace, res admission.Result) {
	now := time.Now().UnixNano()
	prev := last.Load()
	if now-prev < int64(time.Second) || !last.CompareAndSwap(prev, now) {
		return
	}
	s.logger.Warn(msg,
		"endpoint", pattern,
		"verdict", res.Verdict.String(),
		"retry_after_ms", res.RetryAfter.Milliseconds(),
		"request_id", tr.RequestID())
}

// retryAfterSeconds renders a retry hint as whole delta-seconds (the wire
// form of Retry-After), rounding up so clients never come back early.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(math.Ceil(d.Seconds()))
}

// writeOverload renders a non-admitted verdict. Shed ingest answers 429
// (pacing: the client holds buffered telemetry and re-sends), everything
// else 503; both carry the limiter's computed Retry-After.
func writeOverload(w http.ResponseWriter, class admission.Class, res admission.Result) {
	if res.Verdict == admission.Canceled {
		writeV2Error(w, svcErr(CodeCanceled, statusClientClosedRequest, "request canceled while queued for admission"))
		return
	}
	status := http.StatusServiceUnavailable
	if class == admission.Ingest {
		status = http.StatusTooManyRequests
	}
	msg := "overloaded: request shed, retry after the indicated delay"
	if res.Verdict == admission.ShedDeadline {
		msg = "overloaded: request could not meet its deadline and was rejected before doing work"
	}
	serr := svcErr(CodeOverloaded, status, "%s", msg)
	serr.RetryAfter = res.RetryAfter
	writeV2Error(w, serr)
}

// PredictDegraded is the brownout fallback for /v2/predict: the persistent
// previous-day forecast — the paper's zero-training-cost production variant
// (Section 5.4) — computed outside the concurrency limit, because replaying
// a day of history costs microseconds where a model train costs
// milliseconds. The response is flagged degraded:true and names the
// persistent model so callers can tell accuracy was traded for
// availability. Same validation and live-history resolution as the full
// path; the answer equals what a pf-prev-day deployment would serve, which
// the model-equivalence suite already pins.
func (s *Service) PredictDegraded(ctx context.Context, req PredictRequestV2) (PredictResponseV2, *ServiceError) {
	if serr := s.resolveLiveHistory(&req); serr != nil {
		return PredictResponseV2{}, serr
	}
	if serr := validateSeries(req.History, req.Horizon, req.WindowPoints); serr != nil {
		return PredictResponseV2{}, serr
	}
	_, v, serr := s.active(req.Scenario, req.Region)
	if serr != nil {
		return PredictResponseV2{}, serr
	}
	if err := ctx.Err(); err != nil {
		return PredictResponseV2{}, ctxServiceError(err)
	}
	m := forecast.NewPersistent(forecast.PrevDay)
	if err := m.Train(req.History.ToSeries()); err != nil {
		return PredictResponseV2{}, svcErr(CodeUntrainable, http.StatusUnprocessableEntity, "degraded train: %v", err)
	}
	pred, err := m.Forecast(req.Horizon)
	if err != nil {
		return PredictResponseV2{}, svcErr(CodeInternal, http.StatusInternalServerError, "degraded forecast: %v", err)
	}
	llStart, llAvg := -1, 0.0
	if req.WindowPoints > 0 {
		ll, err := metrics.LowestLoadWindow(pred, req.WindowPoints)
		if err != nil {
			return PredictResponseV2{}, svcErr(CodeInternal, http.StatusInternalServerError, "lowest-load window: %v", err)
		}
		llStart, llAvg = ll.Start, ll.AvgLoad
	}
	return PredictResponseV2{
		ServerID: req.ServerID,
		Model:    m.Name(),
		Version:  v.Number,
		Forecast: FromSeries(pred),
		Degraded: true,
		LLStart:  llStart,
		LLAvg:    llAvg,
	}, nil
}
