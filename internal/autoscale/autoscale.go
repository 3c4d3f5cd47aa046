// Package autoscale implements the second Seagull scenario (Appendix A):
// preemptive auto-scale of Azure SQL databases. It classifies databases into
// stable and unstable (Definition 10), forecasts CPU load 24 hours ahead at
// 15-minute granularity with the shared model zoo, and evaluates prediction
// error with the standard metrics of Appendix A.2 (mean NRMSE and MASE) —
// the data behind Figure 16.
//
// Concurrency: evaluation entry points are stateless and safe to call from
// multiple goroutines; the forecast models they build internally are not
// shared. Equivalence: every run is deterministic per (model, seed, input),
// so evaluation rows are reproducible bit for bit.
package autoscale

import (
	"errors"
	"fmt"

	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// ErrShortHistory is returned when a database has too little telemetry.
var ErrShortHistory = errors.New("autoscale: insufficient history")

// StableStdThreshold interprets Definition 10's "variation does not exceed
// one standard deviation for the last three days": the load's standard
// deviation over the last three days must stay within one standard-deviation
// unit of the stable-fleet noise band (2 CPU points for the SQL fleet).
// Exposed as the default of Classifier.Threshold so other fleets can plug in
// their own band (Section 2.4's parameter updates).
const StableStdThreshold = 2.0

// Classifier classifies databases per Definition 10.
type Classifier struct {
	// Threshold is the maximal last-three-day standard deviation for a
	// stable database. Zero means StableStdThreshold.
	Threshold float64
}

// IsStable (Definition 10) reports whether the database's load variation
// over the last three days stays within the stability threshold.
func (c Classifier) IsStable(load timeseries.Series) (bool, error) {
	days := load.Days()
	if len(days) < 3 {
		return false, fmt.Errorf("%w: %d days, need 3", ErrShortHistory, len(days))
	}
	thr := c.Threshold
	if thr == 0 {
		thr = StableStdThreshold
	}
	last3 := timeseries.New(days[len(days)-3].Start, load.Interval, nil)
	for _, d := range days[len(days)-3:] {
		last3.Append(d.Values...)
	}
	return last3.Std() <= thr, nil
}

// ClassifySQLFleet returns the number of stable databases and the total —
// the Appendix A.1 statistic (19.36% stable in the paper's sample).
func (c Classifier) ClassifySQLFleet(dbs []*simulate.Database) (stable, total int, err error) {
	for _, db := range dbs {
		ok, cerr := c.IsStable(db.Load)
		if cerr != nil {
			return stable, total, fmt.Errorf("%s: %w", db.ID, cerr)
		}
		total++
		if ok {
			stable++
		}
	}
	return stable, total, nil
}

// ModelEval is one row of Figure 16: a model's mean error metrics over a
// database population.
type ModelEval struct {
	Model     string
	Databases int     // databases successfully evaluated
	MeanNRMSE float64 // Figure 16
	MeanMASE  float64 // Figure 16
}

// TrainDays of history each database trains on before the 24h-ahead target
// day: the paper trains on one week.
const TrainDays = 7

// EvalConfig parameterizes the Appendix A model comparison.
type EvalConfig struct {
	// Workers for per-database parallelism; 0 means NumCPU.
	Workers int
	// Seed drives stochastic models.
	Seed int64
}

// EvaluateModel trains the named model per database on TrainDays of history,
// predicts the following day (24h ahead), and accumulates NRMSE/MASE against
// the actual day.
func EvaluateModel(name string, dbs []*simulate.Database, cfg EvalConfig) (ModelEval, error) {
	ev := ModelEval{Model: name}

	type result struct {
		nrmse, mase float64
		ok          bool
	}
	pool := parallel.NewPool(cfg.Workers)
	// Train, infer and score in parallel per database (the per-database
	// partitioning of Appendix A: "ARIMA runs in parallel per database").
	// A database without enough history, or that the model cannot fit, is
	// skipped.
	results, err := parallel.Map(pool, dbs, func(db *simulate.Database) (result, error) {
		ppd := db.Load.PointsPerDay()
		need := (TrainDays + 1) * ppd
		if db.Load.Len() < need {
			return result{}, nil
		}
		hist, err := db.Load.Slice(db.Load.Len()-need, db.Load.Len()-ppd)
		if err != nil {
			return result{}, nil
		}
		m, err := forecast.New(name, cfg.Seed)
		if err != nil {
			return result{}, err
		}
		pred, err := forecast.PredictDay(m, hist)
		if err != nil {
			return result{}, nil
		}
		target := db.Load.Values[db.Load.Len()-ppd:]
		nr, err1 := metrics.NRMSE(target, pred.Values)
		ms, err2 := metrics.MASE(target, pred.Values)
		if err1 != nil || err2 != nil {
			return result{}, nil
		}
		return result{nrmse: nr, mase: ms, ok: true}, nil
	})
	if err != nil {
		return ev, err
	}

	var sumN, sumM float64
	for _, r := range results {
		if !r.ok {
			continue
		}
		ev.Databases++
		sumN += r.nrmse
		sumM += r.mase
	}
	if ev.Databases == 0 {
		return ev, fmt.Errorf("autoscale: model %s evaluated no databases", name)
	}
	ev.MeanNRMSE = sumN / float64(ev.Databases)
	ev.MeanMASE = sumM / float64(ev.Databases)
	return ev, nil
}

// CompareModels runs EvaluateModel for each named model — the Figure 16
// comparison (persistent forecast vs neural network vs ARIMA).
func CompareModels(names []string, dbs []*simulate.Database, cfg EvalConfig) ([]ModelEval, error) {
	out := make([]ModelEval, 0, len(names))
	for _, name := range names {
		ev, err := EvaluateModel(name, dbs, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, nil
}
