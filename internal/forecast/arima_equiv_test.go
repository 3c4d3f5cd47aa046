package forecast

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"seagull/internal/linalg"
	"seagull/internal/timeseries"
)

// This file preserves the pre-optimization ARIMA implementation — the naive
// per-candidate recomputation with row-allocating design matrices — as a
// reference, and asserts the optimized hot path (hoisted per-(d,sd) state,
// flat scratch-backed buffers) selects the identical model and produces
// identical numbers.

// refLongARResiduals is the seed implementation of longARResiduals.
func refLongARResiduals(w []float64, m, season int) []float64 {
	resid := make([]float64, len(w))
	lags := make([]int, 0, m+1)
	for i := 1; i <= m; i++ {
		lags = append(lags, i)
	}
	if season < len(w)/2 {
		lags = append(lags, season)
	}
	start := lags[len(lags)-1]
	if start >= len(w)-4 {
		return resid
	}
	rows := make([][]float64, 0, len(w)-start)
	ys := make([]float64, 0, len(w)-start)
	for t := start; t < len(w); t++ {
		row := make([]float64, len(lags)+1)
		row[0] = 1
		for j, lag := range lags {
			row[j+1] = w[t-lag]
		}
		rows = append(rows, row)
		ys = append(ys, w[t])
	}
	design, err := linalg.FromRows(rows)
	if err != nil {
		return resid
	}
	beta, err := linalg.SolveRidge(design, ys, 1e-6)
	if err != nil {
		return resid
	}
	for t := start; t < len(w); t++ {
		pred := beta[0]
		for j, lag := range lags {
			pred += beta[j+1] * w[t-lag]
		}
		resid[t] = w[t] - pred
	}
	return resid
}

// refCSSResiduals is the seed implementation of cssResiduals: it allocates a
// fresh residual slice per call and returns the post-burn-in view.
func refCSSResiduals(o arimaOrder, w []float64, season int, beta []float64) ([]float64, float64) {
	t0 := o.burnIn(season)
	resid := make([]float64, len(w))
	css := 0.0
	for t := t0; t < len(w); t++ {
		pred := beta[0]
		k := 1
		for i := 1; i <= o.p; i++ {
			pred += beta[k] * w[t-i]
			k++
		}
		for i := 1; i <= o.sp; i++ {
			pred += beta[k] * w[t-i*season]
			k++
		}
		for j := 1; j <= o.q; j++ {
			pred += beta[k] * resid[t-j]
			k++
		}
		for j := 1; j <= o.sq; j++ {
			pred += beta[k] * resid[t-j*season]
			k++
		}
		e := w[t] - pred
		resid[t] = e
		css += e * e
	}
	return resid[t0:], css
}

// refPatternSearch is the seed implementation: a fresh candidate vector per
// probe and a fresh residual slice per CSS evaluation.
func refPatternSearch(o arimaOrder, w []float64, season int, beta []float64, budget int) []float64 {
	best := append([]float64(nil), beta...)
	_, bestCSS := refCSSResiduals(o, w, season, best)
	evals := 1
	step := 0.1
	for step > 1e-4 && evals < budget {
		improved := false
		for j := 0; j < len(best) && evals < budget; j++ {
			for _, dir := range [2]float64{1, -1} {
				cand := append([]float64(nil), best...)
				cand[j] += dir * step
				_, css := refCSSResiduals(o, w, season, cand)
				evals++
				if css < bestCSS {
					best, bestCSS = cand, css
					improved = true
					break
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best
}

// refFit is the seed per-candidate fit: Hannan–Rissanen with [][]float64 rows
// and a per-candidate long-AR pass.
func refFit(o arimaOrder, w []float64, season, budget int) (coeffs, resid []float64, css float64, ok bool) {
	t0 := o.burnIn(season)
	if len(w) < t0+16 {
		return nil, nil, 0, false
	}
	initResid := refLongARResiduals(w, minInt(24, len(w)/4), season)
	k := o.numCoeffs()
	start := maxInt(t0, minInt(24, len(w)/4)+season)
	if start >= len(w)-8 {
		start = t0
	}
	rows := make([][]float64, 0, len(w)-start)
	ys := make([]float64, 0, len(w)-start)
	for t := start; t < len(w); t++ {
		row := make([]float64, k)
		fillLagRow(row, o, w, initResid, t, season)
		rows = append(rows, row)
		ys = append(ys, w[t])
	}
	design, err := linalg.FromRows(rows)
	if err != nil {
		return nil, nil, 0, false
	}
	beta, err := linalg.SolveRidge(design, ys, 1e-6)
	if err != nil {
		return nil, nil, 0, false
	}
	beta = refPatternSearch(o, w, season, beta, budget)
	resid, css = refCSSResiduals(o, w, season, beta)
	if math.IsNaN(css) || math.IsInf(css, 0) {
		return nil, nil, 0, false
	}
	return beta, resid, css, true
}

// refSelect runs the seed grid search over the coarse series x, returning the
// winning order, coefficients, residuals, differenced series and AIC.
func refSelect(cfg ARIMAConfig, x []float64, season int) (arimaOrder, []float64, []float64, []float64, float64, bool) {
	bestAIC := math.Inf(1)
	var best arimaOrder
	var bestCoeffs, bestW, bestResid []float64
	for p := 0; p <= cfg.MaxP; p++ {
		for d := 0; d <= arimaMaxD; d++ {
			for q := 0; q <= cfg.MaxQ; q++ {
				for sp := 0; sp <= arimaMaxSP; sp++ {
					for sd := 0; sd <= arimaMaxSD; sd++ {
						for sq := 0; sq <= arimaMaxSQ; sq++ {
							o := arimaOrder{p, d, q, sp, sd, sq}
							if o.numCoeffs() == 1 && d == 0 && sd == 0 {
								continue
							}
							w := differenceAll(x, d, sd, season)
							coeffs, resid, css, ok := refFit(o, w, season, cfg.SearchBudget)
							if !ok {
								continue
							}
							nEff := float64(len(resid))
							if nEff < 8 {
								continue
							}
							aic := nEff*math.Log(css/nEff+1e-12) + 2*float64(o.numCoeffs())
							if aic < bestAIC {
								bestAIC, best = aic, o
								bestCoeffs = coeffs
								bestW = w
								bestResid = resid
							}
						}
					}
				}
			}
		}
	}
	return best, bestCoeffs, bestResid, bestW, bestAIC, !math.IsInf(bestAIC, 1)
}

// equivSeries builds a deterministic week of 5-minute data with a daily shape
// plus seeded noise — enough structure for the order search to be non-trivial.
func equivSeries(seed int64, days int) timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, days*288)
	for i := range vals {
		tod := i % 288
		v := 20 + 30*math.Sin(2*math.Pi*float64(tod)/288)
		if tod >= 96 && tod < 192 {
			v += 15
		}
		v += rng.NormFloat64() * 4
		vals[i] = math.Min(math.Max(v, 0), 100)
	}
	return timeseries.New(time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

// coarseFor replicates Train's preamble so the reference search sees exactly
// the series the optimized path fits.
func coarseFor(t *testing.T, hist timeseries.Series) ([]float64, int) {
	t.Helper()
	h, err := prepare(hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > arimaTrainDays {
		h, err = h.Slice(h.Len()-arimaTrainDays*ppd, h.Len())
		if err != nil {
			t.Fatal(err)
		}
	}
	coarse, _, err := resampleTo(h, arimaGranularity)
	if err != nil {
		t.Fatal(err)
	}
	coarse = coarse.FillGaps()
	return coarse.Values, coarse.PointsPerDay()
}

func equivConfigs() []ARIMAConfig {
	return []ARIMAConfig{
		{MaxP: 1, MaxQ: 1, SearchBudget: 60},  // the experiments' fast config
		{MaxP: 2, MaxQ: 1, SearchBudget: 120}, // a mid-size grid
		{MaxP: 1, MaxQ: 2},                    // default budget
	}
}

func sliceClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s[%d]: %v != %v", what, i, got[i], want[i])
		}
	}
}

// TestARIMAOptimizedMatchesReference fits the optimized search and the
// preserved seed implementation on identical inputs and requires the same
// chosen order and numerically identical (≤1e-9) coefficients, residuals and
// forecasts.
func TestARIMAOptimizedMatchesReference(t *testing.T) {
	for _, cfg := range equivConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			hist := equivSeries(seed, 7)
			m := NewARIMA(cfg)
			if err := m.Train(hist); err != nil {
				t.Fatalf("cfg=%+v seed=%d: %v", cfg, seed, err)
			}
			x, season := coarseFor(t, hist)
			order, coeffs, resid, w, aic, ok := refSelect(m.cfg, x, season)
			if !ok {
				t.Fatalf("cfg=%+v seed=%d: reference found no candidate", cfg, seed)
			}
			if m.order != order {
				t.Fatalf("cfg=%+v seed=%d: order %v != reference %v", cfg, seed, m.order, order)
			}
			if math.Abs(m.aic-aic) > 1e-9 {
				t.Fatalf("cfg=%+v seed=%d: aic %v != %v", cfg, seed, m.aic, aic)
			}
			sliceClose(t, "coeffs", m.coeffs, coeffs, 1e-9)
			sliceClose(t, "w", m.w, w, 1e-9)
			sliceClose(t, "resid", m.resid, resid, 1e-9)

			// End-to-end: the forecast built from the optimized fit must match
			// one built from the reference fit state.
			fc, err := m.Forecast(288)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewARIMA(cfg)
			if err := ref.Train(hist); err != nil {
				t.Fatal(err)
			}
			ref.order, ref.coeffs, ref.w, ref.resid, ref.aic = order, coeffs, w, resid, aic
			fcRef, err := ref.Forecast(288)
			if err != nil {
				t.Fatal(err)
			}
			sliceClose(t, "forecast", fc.Values, fcRef.Values, 1e-9)
		}
	}
}
