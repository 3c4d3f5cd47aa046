// Package serving exposes deployed forecast models through a REST service,
// mirroring the AML-deployed REST endpoints of Section 2.2 at production
// shape: a long-lived, concurrency-safe Service carries a warm model pool
// per (scenario, region, version) — checked-out instances reuse the scratch
// buffers the models retain across Train calls — and speaks a versioned wire
// protocol: single and batch prediction, window advice, stored-prediction
// lookup, structured error codes and request limits.
//
// Endpoints:
//
//	GET  /healthz                          liveness
//	GET  /readyz                           readiness (flips during drain)
//	POST /v2/predict                       single forecast + lowest-load window
//	POST /v2/predict/batch                 many servers, fanned across the pool
//	POST /v2/advise                        customer backup-window review
//	GET  /v2/models                        deployments + pool statistics
//	GET  /v2/predictions/{region}/{week}   stored pipeline predictions
//	POST /v2/ingest                        live telemetry (stream layer)
//	GET  /varz                             operational counters
//
// Concurrency: one Service is meant to carry a process's whole traffic; all
// endpoints are safe for concurrent use, pool checkouts hand exclusive
// instances, and /varz counters are atomics off the request path.
// Equivalence: a warm-pool forecast is pinned bit-identical to a fresh
// model's (pool_test.go), and a /v2/predict carrying live_history returns
// exactly what the same request with the explicit live window would — pool
// reuse and server-side history are latency optimizations, never accuracy
// trades.
package serving

import (
	"encoding/json"
	"net/http"
	"time"

	"seagull/internal/jsonbody"
	"seagull/internal/timeseries"
)

// SeriesJSON is the wire form of a time series.
type SeriesJSON struct {
	Start       time.Time `json:"start"`
	IntervalMin int       `json:"interval_min"`
	Values      Floats    `json:"values"`
}

// Floats is the wire form of a float array. It decodes without reflection:
// an array of numbers goes element by element to strconv.ParseFloat, the
// call encoding/json makes per number (jsonbody.Scanner.Floats, which the
// replica's request walk calls too), and every other shape (null, a
// non-number element, a number out of float64 range) goes to encoding/json
// itself, so values, nil-ness and errors are exactly those of []float64.
// Encoding is []float64's.
type Floats []float64

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(data []byte) error {
	// Like encoding/json, reuse the destination's backing array; *f is set
	// only on success, and a failed parse has written only elements that
	// the fallback writes again, so the fallback sees the destination as
	// encoding/json would.
	s := jsonbody.NewScanner(data)
	out, err := s.Floats((*f)[:0])
	if err != nil || s.End() != nil {
		return json.Unmarshal(data, (*[]float64)(f))
	}
	*f = out
	return nil
}

// ToSeries converts the wire form into a Series.
func (s SeriesJSON) ToSeries() timeseries.Series {
	return timeseries.New(s.Start, time.Duration(s.IntervalMin)*time.Minute, s.Values)
}

// FromSeries converts a Series into its wire form.
func FromSeries(s timeseries.Series) SeriesJSON {
	return SeriesJSON{Start: s.Start, IntervalMin: int(s.Interval / time.Minute), Values: s.Values}
}

// ModelInfo describes one deployment slot in the models listing.
type ModelInfo struct {
	Scenario string  `json:"scenario"`
	Region   string  `json:"region"`
	Model    string  `json:"model"`
	Version  int     `json:"version"`
	Accuracy float64 `json:"accuracy"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
