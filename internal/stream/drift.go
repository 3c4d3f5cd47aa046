package stream

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/jsonbody"
	"seagull/internal/metrics"
	"seagull/internal/pipeline"
	"seagull/internal/timeseries"
)

// minDriftPoints is the minimum number of live/predicted pairs required to
// judge a server at all; with fewer overlapping points the verdict is
// "skipped", not "drifted". One hour at five-minute slots.
const minDriftPoints = 12

// ServerDrift is one server's sweep verdict.
type ServerDrift struct {
	ServerID string  `json:"server_id"`
	Ratio    float64 `json:"ratio"`  // bucket ratio of live actuals vs stored prediction
	Points   int     `json:"points"` // live/predicted pairs the ratio covers
}

// Report is the outcome of one drift sweep over a stored (region, week).
type Report struct {
	Region  string `json:"region"`
	Week    int    `json:"week"`
	Checked int    `json:"checked"` // stored predictions examined
	Drifted int    `json:"drifted"` // predictions whose live actuals fell below the accuracy threshold
	// Skipped counts predictions with too little live overlap to judge.
	Skipped int `json:"skipped"`
	// DriftedServers lists the drifted servers' verdicts, worst ratio first.
	DriftedServers []ServerDrift `json:"drifted_servers,omitempty"`
}

// DriftStats accumulates sweep counters across the detector's lifetime.
type DriftStats struct {
	Sweeps  uint64 `json:"sweeps" metric:"counter seagull_drift_sweeps_total Drift sweeps performed."`
	Checked uint64 `json:"checked" metric:"counter seagull_drift_checked_total Stored predictions checked for drift."`
	Drifted uint64 `json:"drifted" metric:"counter seagull_drift_drifted_total Stored predictions found drifted."`
	Skipped uint64 `json:"skipped" metric:"counter seagull_drift_skipped_total Drift checks skipped for missing data."`
	// Decoded counts the stored predictions a sweep had to decode because
	// their bytes changed since the last sweep; 1 − Decoded/Checked is the
	// share of checks served from already-decoded forecasts.
	Decoded uint64 `json:"decoded" metric:"counter seagull_drift_decoded_total Stored predictions decoded by drift sweeps."`
}

// Add folds another detector's snapshot into s, for fleet-wide totals.
func (s *DriftStats) Add(o DriftStats) {
	s.Sweeps += o.Sweeps
	s.Checked += o.Checked
	s.Drifted += o.Drifted
	s.Skipped += o.Skipped
	s.Decoded += o.Decoded
}

// DriftDetector compares live slots against stored PredictionDocs: a stored
// prediction whose live actuals score below the Definition 2 accuracy
// threshold (0.90) on the Definition 1 bucket ratio would no longer be judged
// accurate — it has drifted and should be refreshed. Both constants come from
// metrics.DefaultConfig, the definitions the weekly pipeline scores with.
// Safe for concurrent use; one detector serves every region.
//
// A stored prediction is decoded once per write, not once per sweep. The
// detector keeps, per region, each swept document decoded together with the
// exact stored body it came from, and a sweep reuses the entry while Query
// hands over that same slice (same length, same address). cosmos never
// writes a stored body in place — every write installs a freshly marshalled
// slice — and the entry keeps its old slice alive, so the address cannot be
// reused for other bytes: same slice means same bytes. A sweep builds the
// region's next set of entries and installs it only when it succeeds, so
// entries are immutable and shared by concurrent sweeps, deleted documents
// and other weeks drop out, and the memory held is one swept week per region.
type DriftDetector struct {
	ing *Ingestor
	db  *cosmos.DB

	mu      sync.Mutex
	entries map[string]map[string]decodedDoc // region -> document id -> decoded prediction

	sweeps  atomic.Uint64
	checked atomic.Uint64
	drifted atomic.Uint64
	skipped atomic.Uint64
	decoded atomic.Uint64
}

// decodedDoc is a stored prediction and the stored body it was decoded from.
type decodedDoc struct {
	body json.RawMessage
	doc  *pipeline.PredictionDoc
}

// sameBody reports whether b is the very slice the entry was decoded from.
func (e decodedDoc) sameBody(b json.RawMessage) bool {
	return len(b) > 0 && len(b) == len(e.body) && &b[0] == &e.body[0]
}

// NewDriftDetector returns a detector over live telemetry and the document
// store holding the pipeline's predictions.
func NewDriftDetector(ing *Ingestor, db *cosmos.DB) *DriftDetector {
	return &DriftDetector{ing: ing, db: db, entries: map[string]map[string]decodedDoc{}}
}

// Sweep judges every stored prediction of (region, week) against the live
// telemetry and returns the drifted servers, worst ratio first. The
// comparison is zero-copy on both sides: the live day is read in place under
// the shard lock and the stored day is viewed, with metrics.BucketRatioCount
// skipping slots that have not arrived yet. Only predictions rewritten since
// the region's last sweep are decoded (see DriftDetector). Cancelling ctx
// abandons the sweep between servers.
func (d *DriftDetector) Sweep(ctx context.Context, region string, week int) (Report, error) {
	rep := Report{Region: region, Week: week}
	threshold := metrics.DefaultConfig().AccuracyThreshold
	weekSuffix := pipeline.DocID("", week)
	d.mu.Lock()
	prev := d.entries[region]
	d.mu.Unlock()
	next := make(map[string]decodedDoc, len(prev))
	var decoded uint64
	err := d.db.Collection(pipeline.PredictionsCollection).Query(region, func(id string, body json.RawMessage) error {
		if !strings.HasSuffix(id, weekSuffix) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		e, ok := prev[id]
		if !ok || !e.sameBody(body) {
			e = decodedDoc{body: body, doc: new(pipeline.PredictionDoc)}
			if err := jsonbody.Unmarshal(body, e.doc); err != nil {
				return fmt.Errorf("decode prediction %s: %w", id, err)
			}
			decoded++
		}
		next[id] = e
		doc := e.doc
		if doc.Week != week {
			return nil
		}
		rep.Checked++
		ratio, points, ok := d.judge(doc)
		if !ok {
			rep.Skipped++
			return nil
		}
		if ratio < threshold {
			rep.Drifted++
			rep.DriftedServers = append(rep.DriftedServers, ServerDrift{
				ServerID: doc.ServerID, Ratio: ratio, Points: points,
			})
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	// Worst offenders first, so a bounded refresh queue spends its budget on
	// the most wrong predictions.
	slices.SortStableFunc(rep.DriftedServers, func(a, b ServerDrift) int { return cmp.Compare(a.Ratio, b.Ratio) })
	d.mu.Lock()
	d.entries[region] = next
	d.mu.Unlock()
	d.sweeps.Add(1)
	d.checked.Add(uint64(rep.Checked))
	d.drifted.Add(uint64(rep.Drifted))
	d.skipped.Add(uint64(rep.Skipped))
	d.decoded.Add(decoded)
	return rep, nil
}

// judge computes the Definition 1 bucket ratio of the live actuals inside
// the stored prediction's day. ok is false when too few live points overlap
// the predicted day to call a verdict.
func (d *DriftDetector) judge(doc *pipeline.PredictionDoc) (ratio float64, points int, ok bool) {
	interval := time.Duration(doc.IntervalMin) * time.Minute
	if interval <= 0 || interval != d.ing.Interval() || len(doc.Values) == 0 {
		return 0, 0, false
	}
	d.ing.WithView(doc.ServerID, func(live timeseries.Series) {
		span := doc.BackupDay.Sub(live.Start)
		if span%interval != 0 {
			// The predicted day is off the ingestor's slot grid: pairing
			// truncated indices would score live slots against predictions
			// for different times. Skip — the refresher rejects the same
			// misalignment.
			return
		}
		off := int(span / interval)
		lo, hi := off, off+len(doc.Values)
		if lo < 0 {
			lo = 0
		}
		if n := live.Len(); hi > n {
			hi = n
		}
		if hi <= lo {
			return
		}
		liveDay, err := live.View(lo, hi)
		if err != nil {
			return
		}
		pred := doc.Series()
		predDay, err := pred.View(lo-off, hi-off)
		if err != nil {
			return
		}
		ratio, points, err = metrics.BucketRatioCount(liveDay, predDay, metrics.DefaultConfig().Bound)
		ok = err == nil && points >= minDriftPoints
	})
	return ratio, points, ok
}

// Stats snapshots the lifetime sweep counters.
func (d *DriftDetector) Stats() DriftStats {
	return DriftStats{
		Sweeps:  d.sweeps.Load(),
		Checked: d.checked.Load(),
		Drifted: d.drifted.Load(),
		Skipped: d.skipped.Load(),
		Decoded: d.decoded.Load(),
	}
}
