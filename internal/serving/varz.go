package serving

import (
	"net/http"

	"seagull/internal/admission"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/stream"
)

// The /varz endpoint (stdlib-only, named after the classic borgmon page)
// exposes the serving process's operational counters as one JSON document:
// warm-pool effectiveness, per-endpoint latency histograms and in-flight
// counts, and — when the stream layer is attached — ingest, drift and
// refresh counters. The same atomics feed the Prometheus rendering on
// /metrics (see metrics.go).

// Varz is the /varz document.
type Varz struct {
	UptimeSec float64                      `json:"uptime_sec" metric:"gauge seagull_uptime_seconds Seconds since the service started."`
	Pool      modelpool.Stats              `json:"pool"`
	Endpoints map[string]obs.EndpointStats `json:"endpoints" label:"endpoint"`
	Ingest    *stream.Stats                `json:"ingest,omitempty"`
	Drift     *stream.DriftStats           `json:"drift,omitempty"`
	Refresh   *stream.RefreshStats         `json:"refresh,omitempty"`
	Sweeper   *stream.SweeperStats         `json:"sweeper,omitempty"`
	// Durability reports WAL commits, incremental snapshots and the boot
	// recovery outcome; Degraded carries the reason when restore was partial
	// (mirrors /readyz).
	Durability *stream.DurabilityStats `json:"durability,omitempty"`
	// Admission reports the adaptive limiter: current limit, in-flight,
	// queue depth, shed/eviction/brownout counters and per-endpoint detail.
	Admission *admission.Stats `json:"admission,omitempty"`
	Degraded  string           `json:"degraded,omitempty" metric:"gauge seagull_degraded 1 when the service reports partial health."`
}

// VarzSnapshot assembles the current /varz document.
func (s *Service) VarzSnapshot() Varz {
	out := Varz{
		UptimeSec: s.http.UptimeSec(),
		Pool:      s.pool.Stats(),
		Endpoints: s.http.Snapshot(),
	}
	if s.cfg.Ingestor != nil {
		st := s.cfg.Ingestor.Stats()
		out.Ingest = &st
	}
	if s.cfg.Drift != nil {
		st := s.cfg.Drift.Stats()
		out.Drift = &st
	}
	if s.cfg.Refresher != nil {
		st := s.cfg.Refresher.Stats()
		out.Refresh = &st
	}
	if s.cfg.Sweeper != nil {
		st := s.cfg.Sweeper.Stats()
		out.Sweeper = &st
	}
	if s.cfg.Durability != nil {
		st := s.cfg.Durability.Stats()
		out.Durability = &st
	}
	adm := s.limiter.Stats()
	out.Admission = &adm
	out.Degraded = s.Degraded()
	return out
}

func (s *Service) handleVarz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.VarzSnapshot())
}
