// Package metrics implements the accuracy metrics the Seagull paper defines
// for low-load prediction (Definitions 1–9) as well as the standard error
// metrics used by the SQL auto-scale scenario (Appendix A.2): mean normalized
// root mean squared error and mean absolute scaled error.
//
// Concurrency: every function is pure (no package state) and safe to call
// concurrently; series arguments are read-only and may be zero-copy views.
// Missing observations follow one convention everywhere: NaN slots are
// skipped, and BucketRatioCount reports how many usable pairs a verdict
// actually covered so thin coverage is never mistaken for accuracy.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"seagull/internal/timeseries"
)

// ErrInsufficientData is returned when a metric needs more observations than
// are available (for example an LL window longer than the day).
var ErrInsufficientData = errors.New("metrics: insufficient data")

// Bound is the acceptable error bound of Definition 1: a predicted point p is
// acceptable for a true point t when t − Under ≤ p ≤ t + Over. The paper's
// production bound tolerates +10 points of over-prediction but only −5 of
// under-prediction, because under-predicting load risks scheduling a backup
// into a busy period.
type Bound struct {
	Over  float64 // tolerated over-prediction (predicted above true)
	Under float64 // tolerated under-prediction (predicted below true)
}

// DefaultBound is the +10/−5 asymmetric production bound (Definition 1).
var DefaultBound = Bound{Over: 10, Under: 5}

// Contains reports whether predicted is within the bound of trueVal.
func (b Bound) Contains(trueVal, predicted float64) bool {
	return predicted <= trueVal+b.Over && predicted >= trueVal-b.Under
}

// Config carries the empirically chosen constants of Definitions 1–9. The
// zero value is not useful; use DefaultConfig (the production constants) and
// override fields as needed for other scenarios.
type Config struct {
	Bound Bound
	// AccuracyThreshold is the minimal bucket ratio for a prediction to be
	// "accurate" (Definition 2). Production value: 0.90.
	AccuracyThreshold float64
	// WindowBound is the acceptable error bound applied to the average true
	// load when judging whether a predicted LL window was chosen correctly
	// (Definition 8). Production value: the same +10/−5 bound.
	WindowBound Bound
	// HistoryWeeks is the number of trailing weeks a server must have been
	// predicted correctly for it to be "predictable" (Definition 9).
	// Production value: 3.
	HistoryWeeks int
}

// DefaultConfig returns the production constants used for backup scheduling.
func DefaultConfig() Config {
	return Config{
		Bound:             DefaultBound,
		AccuracyThreshold: 0.90,
		WindowBound:       DefaultBound,
		HistoryWeeks:      3,
	}
}

// BucketRatio (Definition 1) returns the fraction of predicted points within
// the acceptable error bound of their true counterparts. Pairs where either
// side is missing are skipped; a comparison with no usable pairs has ratio 0.
func BucketRatio(trueS, predS timeseries.Series, b Bound) (float64, error) {
	r, _, err := BucketRatioCount(trueS, predS, b)
	return r, err
}

// BucketRatioCount is BucketRatio plus the number of usable (both sides
// non-missing) pairs the ratio was computed over. Consumers judging partially
// observed series — the stream drift detector compares live telemetry that
// may only cover part of a predicted day — need the pair count to decide
// whether the ratio is meaningful at all.
func BucketRatioCount(trueS, predS timeseries.Series, b Bound) (ratio float64, pairs int, err error) {
	if trueS.Len() != predS.Len() {
		return 0, 0, fmt.Errorf("%w: true has %d points, predicted %d",
			timeseries.ErrLengthMismatch, trueS.Len(), predS.Len())
	}
	in, n := 0, 0
	for i := range trueS.Values {
		tv, pv := trueS.Values[i], predS.Values[i]
		if timeseries.IsMissing(tv) || timeseries.IsMissing(pv) {
			continue
		}
		n++
		if b.Contains(tv, pv) {
			in++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return float64(in) / float64(n), n, nil
}

// Accurate (Definition 2) reports whether a prediction is accurate: the
// bucket ratio meets the configured threshold.
func Accurate(trueS, predS timeseries.Series, cfg Config) (bool, float64, error) {
	r, err := BucketRatio(trueS, predS, cfg.Bound)
	if err != nil {
		return false, 0, err
	}
	return r >= cfg.AccuracyThreshold, r, nil
}

// Window is a lowest-load window (Definition 7): a contiguous interval of a
// day-long series identified by its start index and length in observations,
// with the average load during the interval.
type Window struct {
	Start   int     // index of the first observation in the window
	Length  int     // number of observations (backup duration / interval)
	AvgLoad float64 // average load over the window in the series it came from
}

// LowestLoadWindow (Definition 7) finds the length-w window with minimal
// average load in day (a series covering the backup day). w is the expected
// backup duration in observations.
func LowestLoadWindow(day timeseries.Series, w int) (Window, error) {
	start, mean, err := day.MinWindow(w)
	if err != nil {
		return Window{}, fmt.Errorf("%w: %v", ErrInsufficientData, err)
	}
	return Window{Start: start, Length: w, AvgLoad: mean}, nil
}

// WindowResult is the complete Definition 8 evaluation for one server-day.
type WindowResult struct {
	True      Window // LL window computed on true load
	Predicted Window // LL window computed on predicted load
	// TrueLoadInPredicted is the average *true* load during the predicted
	// window — the quantity that actually matters for backup interference.
	TrueLoadInPredicted float64
	// Correct is Definition 8: the average true load in the predicted window
	// is within the window bound of the average true load in the true window.
	Correct bool
}

// EvaluateWindow (Definition 8) computes true and predicted LL windows of
// length w and judges whether the predicted window was chosen correctly: the
// true window must not be a significantly better slot than the predicted one.
func EvaluateWindow(trueDay, predDay timeseries.Series, w int, cfg Config) (WindowResult, error) {
	if trueDay.Len() != predDay.Len() {
		return WindowResult{}, fmt.Errorf("%w: true day %d, predicted day %d",
			timeseries.ErrLengthMismatch, trueDay.Len(), predDay.Len())
	}
	tw, err := LowestLoadWindow(trueDay, w)
	if err != nil {
		return WindowResult{}, err
	}
	pw, err := LowestLoadWindow(predDay, w)
	if err != nil {
		return WindowResult{}, err
	}
	trueInPred, err := trueDay.WindowMean(pw.Start, pw.Length)
	if err != nil {
		return WindowResult{}, err
	}
	res := WindowResult{True: tw, Predicted: pw, TrueLoadInPredicted: trueInPred}
	// Definition 8: correct when the true load during the predicted window is
	// within the acceptable bound of the true load during the true window.
	res.Correct = cfg.WindowBound.Contains(tw.AvgLoad, trueInPred)
	return res, nil
}

// DayResult combines both orthogonal metrics for one server backup day:
// whether the LL window was chosen correctly (Definition 8) and whether the
// load during the predicted window was predicted accurately (Definition 2
// applied to the window).
type DayResult struct {
	Window         WindowResult
	WindowAccurate bool    // Definition 2 restricted to the predicted window
	WindowRatio    float64 // bucket ratio inside the predicted window
}

// EvaluateDay runs the full backup-day evaluation: LL window choice and load
// accuracy during the predicted window. It allocates nothing: the window
// comparison reads zero-copy views of both days, which lets the parallel
// accuracy-evaluation loops (the experiments sweep millions of server-days
// at full scale) run without per-day garbage.
func EvaluateDay(trueDay, predDay timeseries.Series, w int, cfg Config) (DayResult, error) {
	wr, err := EvaluateWindow(trueDay, predDay, w, cfg)
	if err != nil {
		return DayResult{}, err
	}
	ts, err := trueDay.View(wr.Predicted.Start, wr.Predicted.Start+wr.Predicted.Length)
	if err != nil {
		return DayResult{}, err
	}
	ps, err := predDay.View(wr.Predicted.Start, wr.Predicted.Start+wr.Predicted.Length)
	if err != nil {
		return DayResult{}, err
	}
	acc, ratio, err := Accurate(ts, ps, cfg)
	if err != nil {
		return DayResult{}, err
	}
	return DayResult{Window: wr, WindowAccurate: acc, WindowRatio: ratio}, nil
}

// Predictable (Definition 9) reports whether a server is predictable: every
// one of the trailing HistoryWeeks backup-day evaluations chose the LL window
// correctly and predicted its load accurately. history must contain at least
// cfg.HistoryWeeks results, most recent last; only the trailing
// cfg.HistoryWeeks entries are considered.
func Predictable(history []DayResult, cfg Config) bool {
	if len(history) < cfg.HistoryWeeks {
		return false
	}
	for _, r := range history[len(history)-cfg.HistoryWeeks:] {
		if !r.Window.Correct || !r.WindowAccurate {
			return false
		}
	}
	return true
}

// --- Appendix A.2: standard error metrics for the auto-scale scenario ---

// NRMSE returns the mean normalized root mean squared error (Equation 2):
// sqrt(mean(error²)) / mean(true). A value of 1 matches predicting the mean;
// below 1 beats it. Returns an error for empty input and +Inf when the true
// mean is zero but errors are not.
func NRMSE(trueVals, predVals []float64) (float64, error) {
	if len(trueVals) == 0 || len(trueVals) != len(predVals) {
		return 0, fmt.Errorf("%w: %d true vs %d predicted", ErrInsufficientData, len(trueVals), len(predVals))
	}
	sumSq, sumTrue, n := 0.0, 0.0, 0
	for i := range trueVals {
		tv, pv := trueVals[i], predVals[i]
		if timeseries.IsMissing(tv) || timeseries.IsMissing(pv) {
			continue
		}
		d := pv - tv
		sumSq += d * d
		sumTrue += tv
		n++
	}
	if n == 0 {
		return 0, ErrInsufficientData
	}
	rmse := math.Sqrt(sumSq / float64(n))
	meanTrue := sumTrue / float64(n)
	if meanTrue == 0 {
		if rmse == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return rmse / meanTrue, nil
}

// MASE returns the mean absolute scaled error (Equation 3): the mean absolute
// forecast error divided by the mean absolute error of the one-step-ahead
// naive forecast computed on the true series. Below 1 beats the naive
// forecast. Requires at least two observations.
func MASE(trueVals, predVals []float64) (float64, error) {
	if len(trueVals) < 2 || len(trueVals) != len(predVals) {
		return 0, fmt.Errorf("%w: %d true vs %d predicted", ErrInsufficientData, len(trueVals), len(predVals))
	}
	mae, n := 0.0, 0
	for i := range trueVals {
		if timeseries.IsMissing(trueVals[i]) || timeseries.IsMissing(predVals[i]) {
			continue
		}
		mae += math.Abs(predVals[i] - trueVals[i])
		n++
	}
	if n == 0 {
		return 0, ErrInsufficientData
	}
	mae /= float64(n)
	// Normalizing factor: error of the one-step-ahead naive forecast.
	naive, m := 0.0, 0
	for i := 1; i < len(trueVals); i++ {
		if timeseries.IsMissing(trueVals[i]) || timeseries.IsMissing(trueVals[i-1]) {
			continue
		}
		naive += math.Abs(trueVals[i] - trueVals[i-1])
		m++
	}
	if m == 0 {
		return 0, ErrInsufficientData
	}
	naive /= float64(m)
	if naive == 0 {
		if mae == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return mae / naive, nil
}

// FleetSummary aggregates backup-day evaluation over a fleet of servers.
type FleetSummary struct {
	Servers           int     // servers evaluated
	WindowsCorrect    int     // Definition 8 satisfied
	WindowsAccurate   int     // Definition 2 satisfied on the predicted window
	PredictableCount  int     // Definition 9 satisfied
	PctCorrect        float64 // WindowsCorrect / Servers
	PctAccurate       float64 // WindowsAccurate / Servers
	PctPredictable    float64 // PredictableCount / Servers
	MeanBucketRatio   float64
	totalBucketRatios float64
}

// Add folds one server's latest backup-day result and predictability verdict
// into the summary.
func (f *FleetSummary) Add(r DayResult, predictable bool) {
	f.Servers++
	if r.Window.Correct {
		f.WindowsCorrect++
	}
	if r.WindowAccurate {
		f.WindowsAccurate++
	}
	if predictable {
		f.PredictableCount++
	}
	f.totalBucketRatios += r.WindowRatio
	f.finalize()
}

func (f *FleetSummary) finalize() {
	if f.Servers == 0 {
		return
	}
	n := float64(f.Servers)
	f.PctCorrect = float64(f.WindowsCorrect) / n
	f.PctAccurate = float64(f.WindowsAccurate) / n
	f.PctPredictable = float64(f.PredictableCount) / n
	f.MeanBucketRatio = f.totalBucketRatios / n
}

// String renders the three fleet percentages the paper reports.
func (f *FleetSummary) String() string {
	return fmt.Sprintf("servers=%d LLcorrect=%.2f%% LLaccurate=%.2f%% predictable=%.2f%%",
		f.Servers, 100*f.PctCorrect, 100*f.PctAccurate, 100*f.PctPredictable)
}
