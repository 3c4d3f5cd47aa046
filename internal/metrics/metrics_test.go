package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"seagull/internal/timeseries"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func series(vals ...float64) timeseries.Series {
	return timeseries.New(t0, 5*time.Minute, vals)
}

func TestBoundContains(t *testing.T) {
	b := DefaultBound // +10 / -5
	cases := []struct {
		trueV, pred float64
		want        bool
	}{
		{50, 50, true},
		{50, 60, true},    // exactly +10 over
		{50, 60.1, false}, // just past over bound
		{50, 45, true},    // exactly -5 under
		{50, 44.9, false}, // just past under bound
		{0, 10, true},
		{0, -6, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.trueV, c.pred); got != c.want {
			t.Errorf("Contains(%v,%v) = %v, want %v", c.trueV, c.pred, got, c.want)
		}
	}
}

func TestBoundAsymmetry(t *testing.T) {
	// The production bound must tolerate more over- than under-prediction.
	b := DefaultBound
	if !b.Contains(50, 58) {
		t.Error("+8 over-prediction should be acceptable")
	}
	if b.Contains(50, 42) {
		t.Error("−8 under-prediction must NOT be acceptable")
	}
}

func TestBucketRatio(t *testing.T) {
	trueS := series(50, 50, 50, 50)
	predS := series(50, 59, 44, 61) // in, in, out, out
	r, err := BucketRatio(trueS, predS, DefaultBound)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.5 {
		t.Errorf("BucketRatio = %v, want 0.5", r)
	}
}

func TestBucketRatioMissing(t *testing.T) {
	trueS := series(50, timeseries.Missing, 50)
	predS := series(50, 50, timeseries.Missing)
	r, err := BucketRatio(trueS, predS, DefaultBound)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Errorf("BucketRatio skipping missing = %v, want 1", r)
	}
	allMiss := series(timeseries.Missing)
	r, err = BucketRatio(allMiss, allMiss, DefaultBound)
	if err != nil || r != 0 {
		t.Errorf("all-missing ratio = %v err %v", r, err)
	}
}

func TestBucketRatioLengthMismatch(t *testing.T) {
	if _, err := BucketRatio(series(1), series(1, 2), DefaultBound); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestBucketRatioCount(t *testing.T) {
	trueS := series(50, timeseries.Missing, 50, 50)
	predS := series(50, 50, timeseries.Missing, 80)
	r, n, err := BucketRatioCount(trueS, predS, DefaultBound)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || r != 0.5 {
		t.Errorf("BucketRatioCount = (%v, %d), want (0.5, 2)", r, n)
	}
	allMiss := series(timeseries.Missing)
	r, n, err = BucketRatioCount(allMiss, allMiss, DefaultBound)
	if err != nil || n != 0 || r != 0 {
		t.Errorf("all-missing = (%v, %d, %v)", r, n, err)
	}
	if _, _, err := BucketRatioCount(series(1), series(1, 2), DefaultBound); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestAccurate(t *testing.T) {
	cfg := DefaultConfig()
	trueS := series(50, 50, 50, 50, 50, 50, 50, 50, 50, 50)
	pred := series(50, 50, 50, 50, 50, 50, 50, 50, 50, 50)
	// All 10 in bound → accurate.
	ok, r, err := Accurate(trueS, pred, cfg)
	if err != nil || !ok || r != 1 {
		t.Errorf("perfect prediction: ok=%v r=%v err=%v", ok, r, err)
	}
	// 9/10 in bound → exactly at the 90% threshold → accurate.
	pred.Values[0] = 100
	ok, r, err = Accurate(trueS, pred, cfg)
	if err != nil || !ok || r != 0.9 {
		t.Errorf("90%% prediction: ok=%v r=%v err=%v", ok, r, err)
	}
	// 8/10 → inaccurate.
	pred.Values[1] = 100
	ok, _, err = Accurate(trueS, pred, cfg)
	if err != nil || ok {
		t.Errorf("80%% prediction should be inaccurate")
	}
}

func TestLowestLoadWindow(t *testing.T) {
	day := series(9, 8, 2, 1, 3, 7, 9, 9)
	w, err := LowestLoadWindow(day, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Start != 2 || w.Length != 3 || math.Abs(w.AvgLoad-2) > 1e-9 {
		t.Errorf("LL window = %+v", w)
	}
	if _, err := LowestLoadWindow(day, 100); err == nil {
		t.Error("oversized window should error")
	}
}

// Figure 8 scenario: windows do not overlap but true load in the predicted
// window is only slightly above the optimum → correctly chosen.
func TestEvaluateWindowCorrectNonOverlapping(t *testing.T) {
	cfg := DefaultConfig()
	trueDay := series(10, 10, 3, 3, 20, 20, 5, 5, 30, 30)
	// Predicted valley at indices 6..7 (true load 5); true valley at 2..3 (3).
	predDay := series(30, 30, 20, 20, 30, 30, 1, 1, 30, 30)
	res, err := EvaluateWindow(trueDay, predDay, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Length-2 windows at 2 and 6 do not overlap.
	if res.True.Start != 2 || res.Predicted.Start != 6 {
		t.Fatalf("windows = %+v", res)
	}
	// True load in predicted window (5) is within +10 of the optimum (3).
	if !res.Correct {
		t.Errorf("window should be correctly chosen: %+v", res)
	}
}

// Figure 9 scenario: load accurately predicted during the predicted window,
// but a much lower true window exists elsewhere → incorrectly chosen.
func TestEvaluateWindowIncorrect(t *testing.T) {
	cfg := DefaultConfig()
	trueDay := series(50, 50, 1, 1, 50, 50, 40, 40, 50, 50)
	predDay := series(50, 50, 60, 60, 50, 50, 40, 40, 50, 50)
	res, err := EvaluateWindow(trueDay, predDay, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.True.Start != 2 || res.Predicted.Start != 6 {
		t.Fatalf("windows = %+v", res)
	}
	// True load in predicted window is 40 vs optimal 1 → not correct.
	if res.Correct {
		t.Errorf("window should NOT be correctly chosen: %+v", res)
	}
}

// Figure 10 scenario: window chosen correctly but load inside it predicted
// badly → window correct, accuracy fails.
func TestEvaluateDayOrthogonalMetrics(t *testing.T) {
	cfg := DefaultConfig()
	trueDay := series(50, 50, 30, 30, 50, 50, 50, 50, 50, 50)
	predDay := series(50, 50, 5, 5, 50, 50, 50, 50, 50, 50)
	res, err := EvaluateDay(trueDay, predDay, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Window.Correct {
		t.Errorf("window should be chosen correctly (same valley)")
	}
	if res.WindowAccurate {
		t.Errorf("load in window is under-predicted by 25 points; must be inaccurate (ratio %v)", res.WindowRatio)
	}
}

func TestEvaluateDayBothGood(t *testing.T) {
	cfg := DefaultConfig()
	day := series(50, 50, 10, 10, 50, 50, 50, 50)
	res, err := EvaluateDay(day, day.Clone(), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Window.Correct || !res.WindowAccurate || res.WindowRatio != 1 {
		t.Errorf("perfect prediction should satisfy both metrics: %+v", res)
	}
}

func TestEvaluateWindowLengthMismatch(t *testing.T) {
	if _, err := EvaluateWindow(series(1, 2), series(1), 1, DefaultConfig()); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestPredictable(t *testing.T) {
	cfg := DefaultConfig() // 3 weeks
	good := DayResult{Window: WindowResult{Correct: true}, WindowAccurate: true}
	bad := DayResult{Window: WindowResult{Correct: false}, WindowAccurate: true}

	if Predictable([]DayResult{good, good}, cfg) {
		t.Error("2 weeks of history must not be predictable (needs 3)")
	}
	if !Predictable([]DayResult{good, good, good}, cfg) {
		t.Error("3 good weeks should be predictable")
	}
	if Predictable([]DayResult{good, good, bad}, cfg) {
		t.Error("a bad week in the last 3 must block predictability")
	}
	// Older bad weeks outside the trailing window are forgiven.
	if !Predictable([]DayResult{bad, good, good, good}, cfg) {
		t.Error("bad week 4 weeks ago should not matter")
	}
	// Inaccurate load also blocks.
	inacc := DayResult{Window: WindowResult{Correct: true}, WindowAccurate: false}
	if Predictable([]DayResult{good, good, inacc}, cfg) {
		t.Error("inaccurate window load must block predictability")
	}
}

func TestNRMSE(t *testing.T) {
	// Predicting the mean gives NRMSE relative to mean(true).
	trueV := []float64{10, 20, 30}
	predMean := []float64{20, 20, 20}
	got, err := NRMSE(trueV, predMean)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((100.0+0+100)/3.0) / 20.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NRMSE = %v, want %v", got, want)
	}
	// Perfect forecast → 0.
	if v, _ := NRMSE(trueV, trueV); v != 0 {
		t.Errorf("perfect NRMSE = %v", v)
	}
	// Zero true mean with nonzero error → +Inf.
	v, err := NRMSE([]float64{0, 0}, []float64{1, -1})
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("zero-mean NRMSE = %v err %v", v, err)
	}
	if v, _ := NRMSE([]float64{0, 0}, []float64{0, 0}); v != 0 {
		t.Errorf("all-zero NRMSE = %v", v)
	}
	if _, err := NRMSE(nil, nil); err == nil {
		t.Error("empty NRMSE should error")
	}
	if _, err := NRMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched NRMSE should error")
	}
}

func TestMASE(t *testing.T) {
	// Naive one-step error of [1,2,3,4] is 1. A forecast off by 2 everywhere
	// has MASE 2.
	trueV := []float64{1, 2, 3, 4}
	pred := []float64{3, 4, 5, 6}
	got, err := MASE(trueV, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("MASE = %v, want 2", got)
	}
	// Perfect forecast → 0.
	if v, _ := MASE(trueV, trueV); v != 0 {
		t.Errorf("perfect MASE = %v", v)
	}
	// Constant true series: naive error 0, nonzero forecast error → +Inf.
	v, err := MASE([]float64{5, 5, 5}, []float64{6, 6, 6})
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("constant-series MASE = %v err %v", v, err)
	}
	if v, _ := MASE([]float64{5, 5}, []float64{5, 5}); v != 0 {
		t.Errorf("constant perfect MASE = %v", v)
	}
	if _, err := MASE([]float64{1}, []float64{1}); err == nil {
		t.Error("single-point MASE should error")
	}
}

func TestFleetSummary(t *testing.T) {
	var f FleetSummary
	good := DayResult{Window: WindowResult{Correct: true}, WindowAccurate: true, WindowRatio: 1}
	bad := DayResult{Window: WindowResult{Correct: false}, WindowAccurate: false, WindowRatio: 0.5}
	f.Add(good, true)
	f.Add(good, true)
	f.Add(bad, false)
	f.Add(good, false)
	if f.Servers != 4 || f.WindowsCorrect != 3 || f.WindowsAccurate != 3 || f.PredictableCount != 2 {
		t.Errorf("summary = %+v", f)
	}
	if math.Abs(f.PctCorrect-0.75) > 1e-12 || math.Abs(f.PctPredictable-0.5) > 1e-12 {
		t.Errorf("percentages = %+v", f)
	}
	if math.Abs(f.MeanBucketRatio-0.875) > 1e-12 {
		t.Errorf("mean ratio = %v", f.MeanBucketRatio)
	}
	if f.String() == "" {
		t.Error("String should render")
	}
}

// Property: bucket ratio is 1 whenever prediction equals truth.
func TestPropertyPerfectPredictionRatioOne(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		s := series(vals...)
		r, err := BucketRatio(s, s.Clone(), DefaultBound)
		return err == nil && r == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: EvaluateWindow on identical series is always correct, and the
// predicted window equals the true window.
func TestPropertyIdenticalSeriesWindowCorrect(t *testing.T) {
	f := func(raw []uint8, wSeed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		s := series(vals...)
		w := 1 + int(wSeed)%len(vals)
		res, err := EvaluateWindow(s, s.Clone(), w, DefaultConfig())
		if err != nil {
			return false
		}
		return res.Correct && res.Predicted.Start == res.True.Start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: NRMSE and MASE are non-negative.
func TestPropertyErrorMetricsNonNegative(t *testing.T) {
	f := func(a, b []uint8) bool {
		n := min(len(a), len(b))
		if n < 2 {
			return true
		}
		tv := make([]float64, n)
		pv := make([]float64, n)
		for i := 0; i < n; i++ {
			tv[i] = float64(a[i])
			pv[i] = float64(b[i])
		}
		nr, err1 := NRMSE(tv, pv)
		ms, err2 := MASE(tv, pv)
		if err1 != nil || err2 != nil {
			return false
		}
		return nr >= 0 && ms >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
