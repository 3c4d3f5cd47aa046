package serving

import (
	"context"
	"math"
	"net/http"
	"slices"
	"time"

	"seagull/internal/obs"
	"seagull/internal/stream"
)

// This file wires the stream layer into the serving surface: the POST
// /v2/ingest endpoint that feeds live telemetry into the ingestor (optionally
// closing the loop with a drift sweep + refresh enqueue in the same call).

// --- /v2/ingest wire types ---

// IngestSeries is one server's contiguous run of observations. Its interval
// must match the ingestor's slot granularity. Negative values follow the
// lake extract convention and mark missing observations (skipped — an empty
// slot already reads as missing).
type IngestSeries struct {
	ServerID    string    `json:"server_id"`
	Start       time.Time `json:"start"`
	IntervalMin int       `json:"interval_min"`
	Values      Floats    `json:"values"`
}

// IngestPoint is one standalone observation.
type IngestPoint struct {
	ServerID string `json:"server_id"`
	// TimeUnix is the observation time in Unix seconds.
	TimeUnix int64   `json:"t_unix"`
	Value    float64 `json:"v"`
}

// SweepSpec asks the ingest call to run a drift sweep over one stored
// (region, week) after the appends and queue drifted servers for refresh.
type SweepSpec struct {
	Region string `json:"region"`
	Week   int    `json:"week"`
}

// IngestRequest feeds live telemetry into the stream layer. Either (or
// both) of Servers and Points may be set; ingestion is idempotent, so
// at-least-once clients simply re-send on failure.
type IngestRequest struct {
	Servers []IngestSeries `json:"servers,omitempty"`
	Points  []IngestPoint  `json:"points,omitempty"`
	Sweep   *SweepSpec     `json:"sweep,omitempty"`
}

// SweepResult reports the drift sweep an ingest call ran.
type SweepResult struct {
	Region  string `json:"region"`
	Week    int    `json:"week"`
	Checked int    `json:"checked"`
	Drifted int    `json:"drifted"`
	Skipped int    `json:"skipped"`
	Queued  int    `json:"queued"` // drifted servers newly queued for refresh
	// Dropped counts drifted servers the full refresh queue rejected — the
	// backpressure signal. A server that stays drifted is re-found by the
	// next sweep, so a drop delays its refresh rather than losing it.
	Dropped int      `json:"dropped,omitempty"`
	Servers []string `json:"drifted_servers,omitempty"`
}

// IngestResponse tallies the appended points and carries the optional sweep
// outcome.
type IngestResponse struct {
	Accepted   int          `json:"accepted"`
	Duplicates int          `json:"duplicates"`
	TooOld     int          `json:"too_old"`
	TooNew     int          `json:"too_new"`
	BadValues  int          `json:"bad_values"`
	Skipped    int          `json:"skipped"` // missing observations in series
	Sweep      *SweepResult `json:"sweep,omitempty"`
}

// Ingest appends a telemetry batch into the attached ingestor and, when
// requested, sweeps one stored week for drift and queues the drifted
// servers for refresh. A series goes in as one AppendSeries per run of
// non-negative values, under one shard lock and one clock read; a negative
// value ends a run and counts as skipped. Points go in one Append each. ctx
// is observed between servers and before the sweep; a cancelled call may
// have ingested a prefix (re-sending is safe — appends are idempotent). So
// may a call whose point the stream layer refused because its write-ahead
// log could not take it: that answers 503 overloaded with Retry-After of
// one commit interval.
func (s *Service) Ingest(ctx context.Context, req IngestRequest) (IngestResponse, *ServiceError) {
	ing := s.cfg.Ingestor
	if ing == nil {
		return IngestResponse{}, svcErr(CodeNotFound, http.StatusNotFound, "no stream ingestor attached to this service")
	}
	total := len(req.Points)
	for i := range req.Servers {
		total += len(req.Servers[i].Values)
	}
	// A sweep-only request (no points) is legal: the sharded router
	// broadcasts the sweep clause to every replica, but each replica
	// receives only its own shard's points — possibly none.
	if total == 0 && req.Sweep == nil {
		return IngestResponse{}, badRequest("ingest batch must contain at least one point")
	}
	if total > maxIngestPoints {
		return IngestResponse{}, svcErr(CodeTooLarge, http.StatusRequestEntityTooLarge,
			"ingest batch of %d points exceeds the limit of %d", total, maxIngestPoints)
	}

	var sum stream.AppendSummary
	ingestSpan := obs.TraceFrom(ctx).Begin(obs.StageIngest)
	slotMin := int(ing.Interval() / time.Minute)
	for i := range req.Servers {
		if err := ctx.Err(); err != nil {
			return IngestResponse{}, ctxServiceError(err)
		}
		sr := &req.Servers[i]
		if sr.ServerID == "" {
			return IngestResponse{}, badRequest("servers[%d]: server_id is required", i)
		}
		if sr.IntervalMin != slotMin {
			return IngestResponse{}, badRequest(
				"servers[%d]: interval %dm must match the ingest granularity of %dm", i, sr.IntervalMin, slotMin)
		}
		// A negative value (the lake's mark for a missing observation)
		// ends a run; each run is one series append.
		for j, vals := 0, []float64(sr.Values); j < len(vals); j++ {
			n := slices.IndexFunc(vals[j:], func(v float64) bool { return v < 0 })
			if n < 0 {
				n = len(vals) - j
			}
			run, err := ing.AppendSeries(sr.ServerID, sr.Start.Add(time.Duration(j)*ing.Interval()), vals[j:j+n])
			if err != nil {
				return IngestResponse{}, s.walRefused()
			}
			sum.Merge(run)
			if j += n; j < len(vals) {
				sum.Skipped++ // vals[j] is negative; the loop steps past it
			}
		}
	}
	for i := range req.Points {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return IngestResponse{}, ctxServiceError(err)
			}
		}
		p := &req.Points[i]
		if p.ServerID == "" {
			return IngestResponse{}, badRequest("points[%d]: server_id is required", i)
		}
		if p.Value < 0 || math.IsNaN(p.Value) {
			sum.Skipped++
			continue
		}
		st := ing.Append(p.ServerID, time.Unix(p.TimeUnix, 0).UTC(), p.Value)
		if st == stream.Refused {
			return IngestResponse{}, s.walRefused()
		}
		sum.Add(st)
	}
	ingestSpan.End()

	resp := IngestResponse{
		Accepted:   sum.Appended,
		Duplicates: sum.Duplicates,
		TooOld:     sum.TooOld,
		TooNew:     sum.TooNew,
		BadValues:  sum.BadValues,
		Skipped:    sum.Skipped,
	}
	if req.Sweep != nil {
		if s.cfg.Drift == nil {
			return resp, svcErr(CodeNotFound, http.StatusNotFound, "no drift detector attached to this service")
		}
		if err := ctx.Err(); err != nil {
			return resp, ctxServiceError(err)
		}
		rep, err := s.cfg.Drift.Sweep(ctx, req.Sweep.Region, req.Sweep.Week)
		if err != nil {
			if ctx.Err() != nil {
				return resp, ctxServiceError(ctx.Err())
			}
			return resp, svcErr(CodeInternal, http.StatusInternalServerError, "drift sweep: %v", err)
		}
		sr := &SweepResult{
			Region: rep.Region, Week: rep.Week,
			Checked: rep.Checked, Drifted: rep.Drifted, Skipped: rep.Skipped,
		}
		for _, sd := range rep.DriftedServers {
			sr.Servers = append(sr.Servers, sd.ServerID)
		}
		if s.cfg.Refresher != nil {
			sr.Queued, sr.Dropped = s.cfg.Refresher.EnqueueReport(rep)
		}
		resp.Sweep = sr
	}
	return resp, nil
}

// walRefused answers a point the stream layer refused because its shard's
// write-ahead log could not be flushed: nothing from that point on was
// applied, so the client re-sends the batch after one commit interval (δ).
func (s *Service) walRefused() *ServiceError {
	serr := svcErr(CodeOverloaded, http.StatusServiceUnavailable,
		"overloaded: the write-ahead log could not take the batch; re-send after the indicated delay")
	serr.RetryAfter = time.Second
	if d := s.cfg.Durability; d != nil {
		serr.RetryAfter = time.Duration(d.Stats().DeltaMS * float64(time.Millisecond))
	}
	return serr
}
