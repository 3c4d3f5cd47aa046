package forecast

import (
	"math"
	"testing"

	"seagull/internal/timeseries"
)

// Equivalence tests for the SSA fast paths added for the figure-benchmark
// floor: the randomized range-finder SVD must reproduce the exact Jacobi
// forecasts to ≤1e-6, and a reused (retrained) model must match a fresh one
// bit for bit.

func ssaTestSeries(seed int64, days int) timeseries.Series {
	return mkDays(days, dailyShape(seed))
}

func maxAbsDiff(a, b timeseries.Series) float64 {
	d := 0.0
	for i := range a.Values {
		if v := math.Abs(a.Values[i] - b.Values[i]); v > d {
			d = v
		}
	}
	return d
}

func TestSSARandomizedMatchesJacobi(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		hist := ssaTestSeries(seed, 7)
		exact, err := PredictDay(NewSSA(SSAConfig{}), hist)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := PredictDay(NewSSA(SSAConfig{RandomizedSVD: true}), hist)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Len() != approx.Len() {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		if d := maxAbsDiff(exact, approx); d > 1e-6 {
			t.Errorf("seed %d: randomized SVD forecast deviates by %.2e (> 1e-6)", seed, d)
		}
	}
}

func TestSSARandomizedOnStableLoad(t *testing.T) {
	// Near-rank-one spectra exercise the zero-triple drop path.
	hist := mkDays(7, func(d, s int) float64 { return 42 })
	exact, err := PredictDay(NewSSA(SSAConfig{}), hist)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := PredictDay(NewSSA(SSAConfig{RandomizedSVD: true}), hist)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(exact, approx); d > 1e-6 {
		t.Errorf("stable load: randomized SVD forecast deviates by %.2e", d)
	}
}

// TestSSARetrainMatchesFresh pins the worker-arena contract: a model that
// already trained on one server and is then retrained on another must
// produce exactly the forecast a fresh model would, i.e. no state may leak
// through the retained scratch buffers.
func TestSSARetrainMatchesFresh(t *testing.T) {
	for _, cfg := range []SSAConfig{{}, {RandomizedSVD: true}} {
		reused := NewSSA(cfg)
		if _, err := PredictDay(reused, ssaTestSeries(11, 7)); err != nil {
			t.Fatal(err)
		}
		// Second server: shorter history so every scratch buffer shrinks.
		hist := ssaTestSeries(12, 5)
		predReused, err := PredictDay(reused, hist)
		if err != nil {
			t.Fatal(err)
		}
		predFresh, err := PredictDay(NewSSA(cfg), hist)
		if err != nil {
			t.Fatal(err)
		}
		for i := range predFresh.Values {
			if predReused.Values[i] != predFresh.Values[i] {
				t.Fatalf("cfg %+v: retrained model diverges from fresh at %d", cfg, i)
			}
		}
	}
}
