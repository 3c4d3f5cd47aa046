// Package pipeline is the AML-pipeline analog (Section 2.2): the use-case-
// agnostic core of Seagull. A weekly run per region ingests the load extract
// from the lake, validates it, extracts features, trains the configured
// model per server, deploys/tracks the model version, infers next-day load
// for every server due for backup, evaluates prediction accuracy against the
// actuals that arrived since the previous run, stores results in the Cosmos
// DB analog, and reports stage timings and incidents to the dashboard.
//
// Concurrency: a Pipeline is safe for concurrent runs over distinct
// (region, week) pairs — runs share the substrates but write disjoint
// documents (failure_test.go pins the isolation). Runs also share the
// Pipeline's kept earlier weeks (weeks.go): concurrent runs of one region
// may evict each other's, which only costs a parse, and what was kept never
// changes a result (weeks_test.go pins kept against fresh). Cancelling a
// run's ctx abandons it at the next stage boundary or server partition and
// records it as failed. Equivalence: RunWeek is deterministic per (config,
// stored extract) — the stream layer's refresh path is pinned bit-identical
// to it, and the Cron replays are pinned against operator-triggered runs.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"seagull/internal/classify"
	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/insights"
	"seagull/internal/jsonbody"
	"seagull/internal/lake"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/registry"
	"seagull/internal/simclock"
	"seagull/internal/timeseries"
	"seagull/internal/validate"
)

// Scenario is the deployment scenario name for backup scheduling.
const Scenario = "backup"

// The cosmos collections a weekly run publishes into and the stream layer
// reads back: per-server PredictionDocs and per-region SummaryDocs.
const (
	PredictionsCollection = "predictions"
	SummariesCollection   = "summaries"
)

// Stage names reported in run telemetry; these are the components of
// Figure 12(a).
const (
	StageIngestion  = "ingestion"
	StageValidation = "validation"
	StageFeatures   = "feature-extraction"
	StageTrainInfer = "train-infer"
	StageDeployment = "model-deployment"
	StageAccuracy   = "accuracy-evaluation"
)

// ErrNoData is returned when a run has no usable input.
var ErrNoData = errors.New("pipeline: no input data")

// Config parameterizes one weekly pipeline run (the "parameter updates" of
// Section 2.4). The accuracy constants (Definitions 1–9) are the paper's,
// metrics.DefaultConfig, and a run ingests that config's HistoryWeeks (3)
// prior weeks for training and predictability.
type Config struct {
	Region string
	// Week is the 0-based week (relative to the dataset start) whose extract
	// this run processes; the run happens at the end of that week.
	Week int
	// ModelName selects the forecasting model to train/deploy; defaults to
	// persistent forecast on the previous day — the production choice.
	ModelName string
	// Interval is the telemetry granularity; defaults to 5 minutes.
	Interval time.Duration
	// Workers bounds a run's parallel work: the concurrent parse of the
	// ingested weeks' extracts and the per-server classification, train,
	// infer, accuracy evaluation and prediction writes. 0 means NumCPU; 1
	// forces the single-threaded baseline.
	Workers int
	// Seed drives stochastic models.
	Seed int64
	// MinFleetAccuracy is the LL-window accuracy below which the run demotes
	// the deployed model and falls back to the last known-good version.
	// Zero disables fallback.
	MinFleetAccuracy float64
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = forecast.NamePersistentPrevDay
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Minute
	}
	return c
}

// PredictionDoc is the per-server output stored in the predictions
// collection: the predicted load for the server's backup day.
type PredictionDoc struct {
	ServerID     string    `json:"server_id"`
	Region       string    `json:"region"`
	Week         int       `json:"week"`
	Model        string    `json:"model"`
	BackupDay    time.Time `json:"backup_day"` // midnight of the predicted day
	WindowPoints int       `json:"window_points"`
	IntervalMin  int       `json:"interval_min"`
	// DefaultStart is the server's current activity-agnostic backup window
	// start; the scheduler falls back to it for unpredictable servers.
	DefaultStart time.Time `json:"default_start"`
	Values       []float64 `json:"values"`
	// LLStart is the start index of the predicted lowest-load window.
	LLStart int `json:"ll_start"`
	// LLAvg is the predicted average load inside that window.
	LLAvg float64 `json:"ll_avg"`
	// Refreshes counts how many times the stream layer re-derived this
	// prediction from live telemetry since the weekly run stored it.
	Refreshes int `json:"refreshes,omitempty"`
}

// docFields are the JSON names of the fields WalkJSON fills, in its order.
var docFields = []string{"server_id", "region", "week", "model", "backup_day", "window_points",
	"interval_min", "default_start", "values", "ll_start", "ll_avg", "refreshes"}

// WalkJSON implements jsonbody.Walker, so every reader of stored predictions
// decodes a body in one walk with jsonbody.Unmarshal.
func (p *PredictionDoc) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(docFields, &p.ServerID, &p.Region, &p.Week, &p.Model, &p.BackupDay, &p.WindowPoints,
		&p.IntervalMin, &p.DefaultStart, &p.Values, &p.LLStart, &p.LLAvg, &p.Refreshes)
}

// Series reconstructs the predicted day as a series.
func (p *PredictionDoc) Series() timeseries.Series {
	return timeseries.New(p.BackupDay, time.Duration(p.IntervalMin)*time.Minute, p.Values)
}

// EvalDoc is the per-server accuracy record stored in the evaluations
// collection (one per server per week).
type EvalDoc struct {
	ServerID       string  `json:"server_id"`
	Week           int     `json:"week"`
	WindowCorrect  bool    `json:"window_correct"`
	WindowAccurate bool    `json:"window_accurate"`
	WindowRatio    float64 `json:"window_ratio"`
	TrueLLStart    int     `json:"true_ll_start"`
	PredLLStart    int     `json:"pred_ll_start"`
	TrueLLAvg      float64 `json:"true_ll_avg"`
	PredWindowTrue float64 `json:"pred_window_true_avg"`
	// Predictable is the Definition 9 verdict using history up to this week.
	Predictable bool `json:"predictable"`
}

// SummaryDoc is the per-region weekly fleet summary.
type SummaryDoc struct {
	Region          string  `json:"region"`
	Week            int     `json:"week"`
	Servers         int     `json:"servers"`
	PctCorrect      float64 `json:"pct_ll_correct"`
	PctAccurate     float64 `json:"pct_ll_accurate"`
	PctPredictable  float64 `json:"pct_predictable"`
	MeanBucketRatio float64 `json:"mean_bucket_ratio"`
	Model           string  `json:"model"`
	Version         int     `json:"version"`
}

// Result is the outcome of one weekly run.
type Result struct {
	Region       string
	Week         int
	Rows         int
	Servers      int
	Predicted    int
	Evaluated    int
	Summary      metrics.FleetSummary
	Classes      *classify.Summary
	Validation   *validate.Report
	Version      int
	FellBack     bool
	StageTimings []insights.StageTiming
	Total        time.Duration
	// ReusedWeeks counts the earlier weeks served from the Pipeline's kept
	// weeks instead of parsed (see weeks.go).
	ReusedWeeks int
}

// Pipeline wires the use-case-agnostic components together.
type Pipeline struct {
	Store    *lake.Store
	DB       *cosmos.DB
	Registry *registry.Registry
	Dash     *insights.Dashboard
	// Clock stamps run records with (possibly simulated) time; stage timings
	// always use the wall clock — they measure real work.
	Clock simclock.Clock

	weeks weekCache
}

// New returns a pipeline over the given substrates. dash may be nil (a
// fresh dashboard is created).
func New(store *lake.Store, db *cosmos.DB, reg *registry.Registry, dash *insights.Dashboard) *Pipeline {
	if dash == nil {
		dash = insights.New(nil)
	}
	return &Pipeline{Store: store, DB: db, Registry: reg, Dash: dash, Clock: simclock.Wall}
}

// RunWeek executes the full weekly pipeline for one region. Cancelling ctx
// abandons the run at the next stage boundary (and, inside training and
// inference, at the next server partition); the dashboard records the run as
// failed with the context's error.
func (p *Pipeline) RunWeek(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{Region: cfg.Region, Week: cfg.Week}
	runStart := time.Now()
	record := func(stage string, d time.Duration) {
		res.StageTimings = append(res.StageTimings, insights.StageTiming{Stage: stage, Duration: d})
	}
	fail := func(stage string, err error) (*Result, error) {
		p.Dash.Raise(insights.SevError, cfg.Region, stage, "%v", err)
		res.Total = time.Since(runStart)
		p.Dash.RecordRun(insights.RunRecord{
			Region: cfg.Region, Week: cfg.Week, StartedAt: p.Clock.Now(),
			Total: res.Total, Stages: res.StageTimings,
			Rows: res.Rows, Servers: res.Servers, Succeeded: false, Error: err.Error(),
		})
		return res, fmt.Errorf("pipeline %s week %d: %s: %w", cfg.Region, cfg.Week, stage, err)
	}

	if err := ctx.Err(); err != nil {
		return fail(StageIngestion, err)
	}

	// --- Ingestion: current week plus trailing history weeks; the current
	// week's rows are schema-checked by the same scan. ---
	t := time.Now()
	schema := validate.DefaultSchema()
	rows := validate.NewRowChecker(schema)
	histories, weekLoads, reused, err := p.ingest(cfg, rows.Check)
	record(StageIngestion, time.Since(t))
	if err != nil {
		return fail(StageIngestion, err)
	}
	res.ReusedWeeks = reused
	res.Servers = len(weekLoads)
	for _, sl := range weekLoads {
		res.Rows += sl.Load.Len()
	}

	// --- Validation: the row report plus ingested-series checks. ---
	if err := ctx.Err(); err != nil {
		return fail(StageValidation, err)
	}
	t = time.Now()
	rep := rows.Finish(nil)
	loadRep := validate.ValidateLoads(weekLoads, schema, int(7*24*time.Hour/cfg.Interval))
	rep.Anomalies = append(rep.Anomalies, loadRep.Anomalies...)
	rep.Valid = rep.Valid && loadRep.Valid
	record(StageValidation, time.Since(t))
	res.Validation = rep
	if !rep.Valid {
		p.Dash.Raise(insights.SevWarning, cfg.Region, StageValidation,
			"%d anomalies in week %d extract", len(rep.Anomalies), cfg.Week)
	}

	// --- Feature extraction / classification. ---
	t = time.Now()
	ids := sortedIDs(histories)
	res.Classes, err = p.extractFeatures(cfg, ids, histories)
	record(StageFeatures, time.Since(t))
	if err != nil {
		return fail(StageFeatures, err)
	}

	// --- Model deployment & tracking. ---
	t = time.Now()
	version := p.Registry.Deploy(registry.Target{Scenario: Scenario, Region: cfg.Region},
		cfg.ModelName, fmt.Sprintf("week %d", cfg.Week))
	res.Version = version
	record(StageDeployment, time.Since(t))

	// --- Training & inference: predict each server's backup day. ---
	if err := ctx.Err(); err != nil {
		return fail(StageTrainInfer, err)
	}
	t = time.Now()
	preds, evals, err := p.trainInferEvaluate(ctx, cfg, ids, histories)
	record(StageTrainInfer, time.Since(t))
	if err != nil {
		return fail(StageTrainInfer, err)
	}
	res.Predicted = len(preds)

	// --- Accuracy evaluation & persistence. ---
	if err := ctx.Err(); err != nil {
		return fail(StageAccuracy, err)
	}
	t = time.Now()
	summary, err := p.persistResults(cfg, version, preds, evals)
	record(StageAccuracy, time.Since(t))
	if err != nil {
		return fail(StageAccuracy, err)
	}
	res.Evaluated = len(evals)
	res.Summary = summary

	// Known-good fallback when fleet accuracy regresses (Section 2.2).
	if cfg.MinFleetAccuracy > 0 && summary.Servers > 0 && summary.PctCorrect < cfg.MinFleetAccuracy {
		if back, err := p.Registry.Fallback(registry.Target{Scenario: Scenario, Region: cfg.Region}, cfg.MinFleetAccuracy); err == nil {
			res.FellBack = true
			p.Dash.Raise(insights.SevWarning, cfg.Region, StageAccuracy,
				"accuracy %.3f below %.3f; fell back to %s v%d",
				summary.PctCorrect, cfg.MinFleetAccuracy, back.ModelName, back.Number)
		} else {
			p.Dash.Raise(insights.SevCritical, cfg.Region, StageAccuracy,
				"accuracy %.3f below %.3f and no known-good fallback: %v",
				summary.PctCorrect, cfg.MinFleetAccuracy, err)
		}
	}

	res.Total = time.Since(runStart)
	p.Dash.RecordRun(insights.RunRecord{
		Region: cfg.Region, Week: cfg.Week, StartedAt: p.Clock.Now(),
		Total: res.Total, Stages: res.StageTimings,
		Rows: res.Rows, Servers: res.Servers, Succeeded: true,
	})
	return res, nil
}

// serverHistory is a server's concatenated load across the ingested weeks.
type serverHistory struct {
	id           string
	load         timeseries.Series
	backupStart  time.Time
	backupEnd    time.Time
	windowPoints int
}

// ingest loads the current week plus up to HistoryWeeks prior weeks and
// concatenates them per server, handing the current week's rows to check as
// they are scanned. The weeks are read concurrently under cfg.Workers, each
// into its own slot — an earlier week from the Pipeline's kept weeks when its
// extract is unchanged (weeks.go) — and concatenated in week order, so the
// result and the error returned (the first in week order) depend neither on
// the worker count nor on what was kept. The pool claims the longest reads
// first: the current week, then the earlier weeks that must be parsed, then
// the kept ones, which only hash. It returns the per-server histories, the
// current week's loads (for validation; views of the histories' last points)
// and how many earlier weeks were reused.
func (p *Pipeline) ingest(cfg Config, check func(lake.Row)) (map[string]*serverHistory, []*extract.ServerLoad, int, error) {
	if cfg.Week < 0 {
		return nil, nil, 0, ErrNoData
	}
	firstWeek := max(cfg.Week-metrics.DefaultConfig().HistoryWeeks, 0)
	keep := p.weeks.begin(cfg.Region)
	defer p.weeks.retain(cfg.Region, cfg.Interval, firstWeek, cfg.Week)
	n := cfg.Week - firstWeek + 1
	kept := make([]*keptWeek, n)
	order, hashes := []int{n - 1}, []int(nil)
	for i := 0; i < n-1; i++ {
		if kept[i] = p.weeks.get(weekKey{region: cfg.Region, week: firstWeek + i, interval: cfg.Interval}); kept[i] == nil {
			order = append(order, i)
		} else {
			hashes = append(hashes, i)
		}
	}
	order = append(order, hashes...)
	weeks := make([][]weekServer, n)
	reusedWeek := make([]bool, n)
	errs := make([]error, n)
	err := parallel.NewPool(cfg.Workers).ForEach(n, func(j int) error {
		i := order[j]
		var visit func(lake.Row)
		if i == n-1 {
			visit = check
		}
		weeks[i], reusedWeek[i], errs[i] = p.readWeek(cfg, firstWeek+i, kept[i], visit, keep)
		return nil
	})
	if err != nil { // a recovered panic; the weeks' own errors are in errs
		return nil, nil, 0, err
	}
	weekPoints := int(7 * 24 * time.Hour / cfg.Interval)
	histories := map[string]*serverHistory{}
	reused := 0
	for i, wk := range weeks {
		w := firstWeek + i
		if err := errs[i]; err != nil {
			if errors.Is(err, lake.ErrNotFound) && w != cfg.Week {
				continue // older weeks may predate the dataset
			}
			return nil, nil, 0, err
		}
		if reusedWeek[i] {
			reused++
		}
		for _, sl := range wk {
			h := histories[sl.ServerID]
			if h == nil {
				// Size the history once for every week still to come, so the
				// later weeks append in place.
				vals := sl.appendTo(make([]float64, 0, (cfg.Week-w+1)*weekPoints))
				h = &serverHistory{id: sl.ServerID, load: timeseries.New(sl.Load.Start, sl.Load.Interval, vals)}
				histories[sl.ServerID] = h
			} else {
				// Append, bridging any gap between weeks with missing points.
				gap := int(sl.Load.Start.Sub(h.load.End()) / cfg.Interval)
				for g := 0; g < gap; g++ {
					h.load.Append(timeseries.Missing)
				}
				h.load.Values = sl.appendTo(h.load.Values)
			}
			h.backupStart, h.backupEnd = sl.BackupStart, sl.BackupEnd
			h.windowPoints = sl.WindowPoints()
		}
	}
	current := weeks[n-1]
	if len(current) == 0 {
		return nil, nil, 0, ErrNoData
	}
	loads := make([]extract.ServerLoad, len(current))
	weekLoads := make([]*extract.ServerLoad, len(current))
	for i, sl := range current {
		vals := histories[sl.ServerID].load.Values
		loads[i] = *sl.ServerLoad
		loads[i].Load.Values = vals[len(vals)-sl.points():]
		weekLoads[i] = &loads[i]
	}
	return histories, weekLoads, reused, nil
}

// sortedIDs returns the servers of histories in id order. Every stage that
// walks the servers walks them in this order: persistResults sums the fleet
// summary in it, and float addition is not associative, so map order would
// change the stored summary's last bits from run to run.
func sortedIDs(histories map[string]*serverHistory) []string {
	ids := make([]string, 0, len(histories))
	for id := range histories {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// extractFeatures classifies every server on its concatenated history. The
// servers are classified across the pool, one classify.Scratch per worker;
// their categories are added, and failures raised, in id order.
func (p *Pipeline) extractFeatures(cfg Config, ids []string, histories map[string]*serverHistory) (*classify.Summary, error) {
	cats := make([]classify.Category, len(ids))
	errs := make([]error, len(ids))
	err := parallel.ForEachScratch(parallel.NewPool(cfg.Workers), len(ids), func() *classify.Scratch { return &classify.Scratch{} },
		func(i int, sc *classify.Scratch) error {
			h := histories[ids[i]]
			cats[i], errs[i] = classify.CategorizeScratch(h.load, h.load.NumDays(), metrics.DefaultConfig(), sc)
			return nil
		})
	if err != nil { // a recovered panic
		return nil, err
	}
	sum := classify.NewSummary()
	for i, id := range ids {
		if errs[i] != nil {
			p.Dash.Raise(insights.SevWarning, cfg.Region, StageFeatures, "%s: %v", id, errs[i])
			continue
		}
		sum.Add(cats[i])
	}
	return sum, nil
}

// trainInferEvaluate predicts each server's backup day within the processed
// week using the week of history immediately preceding it, and evaluates the
// prediction against the actuals (which are available because the run
// happens at the end of the week). Servers are processed in parallel
// partitions, Dask-style.
func (p *Pipeline) trainInferEvaluate(ctx context.Context, cfg Config, ids []string, histories map[string]*serverHistory) ([]*PredictionDoc, []*EvalDoc, error) {
	pool := parallel.NewPool(cfg.Workers)
	type outcome struct {
		pred *PredictionDoc
		eval *EvalDoc
	}
	outs := make([]outcome, len(ids))
	err := pool.ForEachCtx(ctx, len(ids), func(i int) error {
		h := histories[ids[i]]
		pd, ed := p.predictServer(cfg, h)
		outs[i] = outcome{pred: pd, eval: ed}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var preds []*PredictionDoc
	var evals []*EvalDoc
	for _, o := range outs {
		if o.pred != nil {
			preds = append(preds, o.pred)
		}
		if o.eval != nil {
			evals = append(evals, o.eval)
		}
	}
	return preds, evals, nil
}

// MinTrainDays is the least history a model trains on (Section 5.3.1: servers
// need at least three days of telemetry before their backup day).
const MinTrainDays = 3

// TrainingWindow is the one rule for how much history a forecast of the day
// starting at point dayIdx trains on: the whole days immediately before it,
// at most a week. ok is false under MinTrainDays. The weekly run and the
// stream refresher both call it, which is what keeps a refreshed forecast
// bit-identical to a full RunWeek over the same telemetry.
func TrainingWindow(dayIdx, pointsPerDay int) (points int, ok bool) {
	points = 7 * pointsPerDay
	if dayIdx < points {
		points = dayIdx - dayIdx%pointsPerDay
	}
	return points, points >= MinTrainDays*pointsPerDay
}

// predictServer runs train→infer→evaluate for one server. Servers whose
// history cannot support the model (too young, no backup day in week) are
// skipped — they default to the activity-agnostic backup window.
func (p *Pipeline) predictServer(cfg Config, h *serverHistory) (*PredictionDoc, *EvalDoc) {
	ppd := h.load.PointsPerDay()
	backupMidnight := h.backupStart.Truncate(24 * time.Hour)
	dayIdx, ok := h.load.IndexOf(backupMidnight)
	if !ok || dayIdx%ppd != 0 {
		// Align to the containing day.
		if !ok {
			return nil, nil
		}
		dayIdx -= dayIdx % ppd
	}
	if dayIdx+ppd > h.load.Len() {
		return nil, nil // backup day not fully covered by telemetry
	}
	trainPoints, ok := TrainingWindow(dayIdx, ppd)
	if !ok {
		return nil, nil
	}
	history, err := h.load.View(dayIdx-trainPoints, dayIdx)
	if err != nil {
		return nil, nil
	}
	model, err := forecast.New(cfg.ModelName, cfg.Seed)
	if err != nil {
		p.Dash.Raise(insights.SevError, cfg.Region, StageTrainInfer, "model %q: %v", cfg.ModelName, err)
		return nil, nil
	}
	pred, err := forecast.PredictDay(model, history)
	if err != nil {
		return nil, nil
	}
	w := h.windowPoints
	if w < 1 {
		w = 1
	}
	if w > ppd {
		w = ppd
	}
	llw, err := metrics.LowestLoadWindow(pred, w)
	if err != nil {
		return nil, nil
	}
	pdoc := &PredictionDoc{
		ServerID:     h.id,
		Region:       cfg.Region,
		Week:         cfg.Week,
		Model:        cfg.ModelName,
		BackupDay:    h.load.TimeAt(dayIdx),
		WindowPoints: w,
		IntervalMin:  int(h.load.Interval / time.Minute),
		DefaultStart: h.backupStart,
		Values:       pred.Values,
		LLStart:      llw.Start,
		LLAvg:        llw.AvgLoad,
	}

	// Evaluate against actuals (run happens after the week completed).
	trueDay, err := h.load.View(dayIdx, dayIdx+ppd)
	if err != nil {
		return pdoc, nil
	}
	dr, err := metrics.EvaluateDay(trueDay.FillGaps(), pred, w, metrics.DefaultConfig())
	if err != nil {
		return pdoc, nil
	}
	edoc := &EvalDoc{
		ServerID:       h.id,
		Week:           cfg.Week,
		WindowCorrect:  dr.Window.Correct,
		WindowAccurate: dr.WindowAccurate,
		WindowRatio:    dr.WindowRatio,
		TrueLLStart:    dr.Window.True.Start,
		PredLLStart:    dr.Window.Predicted.Start,
		TrueLLAvg:      dr.Window.True.AvgLoad,
		PredWindowTrue: dr.Window.TrueLoadInPredicted,
	}
	return pdoc, edoc
}

// persistResults stores predictions and evaluations in Cosmos, computes the
// Definition 9 predictability per server from the trailing weeks, and
// records the fleet summary. The prediction documents, which cost most to
// encode, are written across the pool, and the first failure in id order is
// returned; the evaluations stay in id order, as the Definition 9 reads and
// the fleet summary's float sum need.
func (p *Pipeline) persistResults(cfg Config, version int, preds []*PredictionDoc, evals []*EvalDoc) (metrics.FleetSummary, error) {
	var summary metrics.FleetSummary
	predCol := p.DB.Collection(PredictionsCollection)
	evalCol := p.DB.Collection("evaluations")
	sumCol := p.DB.Collection(SummariesCollection)
	historyWeeks := metrics.DefaultConfig().HistoryWeeks

	errs := make([]error, len(preds))
	if err := parallel.NewPool(cfg.Workers).ForEach(len(preds), func(i int) error {
		pd := preds[i]
		errs[i] = predCol.Upsert(cfg.Region, DocID(pd.ServerID, pd.Week), pd)
		return nil
	}); err != nil { // a recovered panic
		return summary, err
	}
	for _, err := range errs {
		if err != nil {
			return summary, err
		}
	}
	for _, ed := range evals {
		// Definition 9: predictable when the trailing HistoryWeeks (including
		// this one) were all correct and accurate.
		predictable := ed.WindowCorrect && ed.WindowAccurate
		weeksSeen := 1
		for w := ed.Week - 1; w > ed.Week-historyWeeks && predictable; w-- {
			var prev EvalDoc
			if err := evalCol.Get(cfg.Region, DocID(ed.ServerID, w), &prev); err != nil {
				predictable = false
				break
			}
			weeksSeen++
			predictable = prev.WindowCorrect && prev.WindowAccurate
		}
		if weeksSeen < historyWeeks {
			predictable = false
		}
		ed.Predictable = predictable
		if err := evalCol.Upsert(cfg.Region, DocID(ed.ServerID, ed.Week), ed); err != nil {
			return summary, err
		}
		summary.Add(metrics.DayResult{
			Window: metrics.WindowResult{
				Correct: ed.WindowCorrect,
				True:    metrics.Window{Start: ed.TrueLLStart, AvgLoad: ed.TrueLLAvg},
				Predicted: metrics.Window{
					Start: ed.PredLLStart,
				},
				TrueLoadInPredicted: ed.PredWindowTrue,
			},
			WindowAccurate: ed.WindowAccurate,
			WindowRatio:    ed.WindowRatio,
		}, predictable)
	}

	target := registry.Target{Scenario: Scenario, Region: cfg.Region}
	if summary.Servers > 0 {
		if err := p.Registry.RecordAccuracy(target, version, summary.PctCorrect); err != nil {
			return summary, err
		}
	}
	doc := SummaryDoc{
		Region: cfg.Region, Week: cfg.Week,
		Servers:         summary.Servers,
		PctCorrect:      summary.PctCorrect,
		PctAccurate:     summary.PctAccurate,
		PctPredictable:  summary.PctPredictable,
		MeanBucketRatio: summary.MeanBucketRatio,
		Model:           cfg.ModelName,
		Version:         version,
	}
	if err := sumCol.Upsert(cfg.Region, fmt.Sprintf("week-%04d", cfg.Week), doc); err != nil {
		return summary, err
	}
	return summary, nil
}

// DocID is the one id rule for a server's per-week documents in the
// predictions and evaluations collections: "<serverID>/week-NNNN".
func DocID(serverID string, week int) string {
	return fmt.Sprintf("%s/week-%04d", serverID, week)
}
