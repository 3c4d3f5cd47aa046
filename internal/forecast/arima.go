package forecast

import (
	"fmt"
	"math"
	"time"

	"seagull/internal/linalg"
	"seagull/internal/timeseries"
)

// ARIMAConfig configures the seasonal ARIMA forecaster. Like the pmdarima
// auto-ARIMA the paper evaluated, it "searches the optimal values of six
// parameters per server" — (p, d, q) and the seasonal (P, D, Q) — fitting
// each candidate by conditional-sum-of-squares and selecting by AIC. This
// search is what makes ARIMA the most expensive model of the zoo, which is
// exactly the finding that led the paper to exclude it (Section 2.1, 5.3.3).
type ARIMAConfig struct {
	// MaxP/MaxQ bound the non-seasonal AR and MA orders. Default 3.
	MaxP, MaxQ int
	// SearchBudget is the maximum number of CSS objective evaluations per
	// candidate order during the pattern-search refinement. Default 400.
	SearchBudget int
}

// ARIMA model constants: the remaining order bounds and the sampling.
const (
	// arimaMaxD bounds the non-seasonal differencing order.
	arimaMaxD = 1
	// arimaMaxSP and arimaMaxSQ bound the seasonal AR and MA orders.
	arimaMaxSP, arimaMaxSQ = 1, 1
	// arimaMaxSD bounds the seasonal differencing order.
	arimaMaxSD = 1
	// arimaGranularity is the internal sampling interval; the season length
	// is one day at this granularity.
	arimaGranularity = 15 * time.Minute
	// arimaTrainDays limits how much trailing history is used.
	arimaTrainDays = 7
)

func (c ARIMAConfig) withDefaults() ARIMAConfig {
	if c.MaxP == 0 {
		c.MaxP = 3
	}
	if c.MaxQ == 0 {
		c.MaxQ = 3
	}
	if c.SearchBudget == 0 {
		c.SearchBudget = 400
	}
	return c
}

// arimaOrder is one candidate (p,d,q)(P,D,Q)_s specification.
type arimaOrder struct {
	p, d, q, sp, sd, sq int
}

func (o arimaOrder) String() string {
	return fmt.Sprintf("(%d,%d,%d)(%d,%d,%d)", o.p, o.d, o.q, o.sp, o.sd, o.sq)
}

// numCoeffs returns the coefficient count including the intercept.
func (o arimaOrder) numCoeffs() int { return 1 + o.p + o.sp + o.q + o.sq }

// burnIn returns the number of leading observations the ARMA recursion needs
// before residuals are defined.
func (o arimaOrder) burnIn(season int) int {
	return maxInt(maxInt(o.p, o.q), maxInt(o.sp, o.sq)*season)
}

// ARIMA is the seasonal ARIMA(p,d,q)(P,D,Q)_s forecaster with grid-searched
// orders. Seasonal terms enter additively (lags s·i), an established
// approximation of the multiplicative Box-Jenkins form.
type ARIMA struct {
	cfg ARIMAConfig

	trained      bool
	order        arimaOrder
	coeffs       []float64 // intercept, AR(p), SAR(P), MA(q), SMA(Q)
	season       int
	w            []float64 // differenced training series
	resid        []float64 // in-sample residuals aligned with w
	xTail        []float64 // trailing raw values (for seasonal undiff)
	zTail        []float64 // trailing seasonally differenced values
	factor       int
	fineInterval time.Duration
	end          time.Time
	aic          float64

	// scratch carries the design/residual/solver buffers across candidates
	// within one Train and across Train calls, so a model reused as a
	// per-worker arena fits its whole grid without per-candidate (or
	// per-server) allocations.
	scratch fitScratch
}

// NewARIMA returns a seasonal ARIMA forecaster with cfg (zero fields take
// defaults).
func NewARIMA(cfg ARIMAConfig) *ARIMA { return &ARIMA{cfg: cfg.withDefaults()} }

// Name implements Model.
func (a *ARIMA) Name() string { return NameARIMA }

// DeterministicInference implements InferenceDeterministic: forecasting
// iterates the fitted recursion with zero future shocks.
func (a *ARIMA) DeterministicInference() bool { return true }

// Order returns the selected specification after training.
func (a *ARIMA) Order() string { return a.order.String() }

// AIC returns the selected model's Akaike information criterion.
func (a *ARIMA) AIC() float64 { return a.aic }

// fitScratch holds the buffers the candidate fits reuse, so the
// grid search does no per-candidate design-matrix or residual allocations.
// The zero value is ready to use; buffers grow on demand.
type fitScratch struct {
	design    linalg.Matrix
	designBuf []float64
	ys        []float64
	ridge     linalg.RidgeScratch
	resid     []float64 // ARMA-recursion residual buffer
	best      []float64 // pattern-search incumbent
	cand      []float64 // pattern-search probe
}

// designFor returns a rows×cols matrix backed by the scratch buffer. Every
// element is overwritten by the caller, so no zeroing is needed.
func (s *fitScratch) designFor(rows, cols int) *linalg.Matrix {
	if cap(s.designBuf) < rows*cols {
		s.designBuf = make([]float64, rows*cols)
	}
	s.design = linalg.Matrix{Rows: rows, Cols: cols, Data: s.designBuf[:rows*cols]}
	return &s.design
}

// residFor returns the residual buffer sized for an n-point series.
func (s *fitScratch) residFor(n int) []float64 {
	if cap(s.resid) < n {
		s.resid = make([]float64, n)
	}
	return s.resid[:n]
}

// ysFor returns the regression-target buffer for n rows.
func (s *fitScratch) ysFor(n int) []float64 {
	if cap(s.ys) < n {
		s.ys = make([]float64, n)
	}
	return s.ys[:n]
}

// searchVecs returns the two k-coefficient pattern-search buffers.
func (s *fitScratch) searchVecs(k int) (best, cand []float64) {
	if cap(s.best) < k {
		s.best = make([]float64, k)
	}
	if cap(s.cand) < k {
		s.cand = make([]float64, k)
	}
	return s.best[:k], s.cand[:k]
}

// Train implements Model: grid search over the six order parameters, each
// candidate estimated by Hannan–Rissanen regression and refined by pattern
// search on the conditional sum of squares; the best AIC wins.
//
// The differenced series and the Hannan–Rissanen long-AR innovations depend
// only on the differencing pair (d, sd), so they are computed once per pair
// and shared by the full (p,q,P,Q) sub-grid instead of being recomputed for
// every one of the up-to-512 candidates. Candidate fits reuse the model's
// scratch buffers.
func (a *ARIMA) Train(history timeseries.Series) error {
	h, err := prepare(history, 3)
	if err != nil {
		return err
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > arimaTrainDays {
		h, err = h.Slice(h.Len()-arimaTrainDays*ppd, h.Len())
		if err != nil {
			return err
		}
	}
	coarse, factor, err := resampleTo(h, arimaGranularity)
	if err != nil {
		return err
	}
	coarse = coarse.FillGaps()
	x := coarse.Values
	season := coarse.PointsPerDay()

	// Hoisted per-(d,sd) state.
	nDS := (arimaMaxD + 1) * (arimaMaxSD + 1)
	ws := make([][]float64, nDS)
	initResids := make([][]float64, nDS)
	scratch := &a.scratch
	for d := 0; d <= arimaMaxD; d++ {
		for sd := 0; sd <= arimaMaxSD; sd++ {
			idx := d*(arimaMaxSD+1) + sd
			w := differenceAll(x, d, sd, season)
			ws[idx] = w
			initResids[idx] = longARResiduals(w, minInt(24, len(w)/4), season, scratch)
		}
	}

	// Fit every candidate in the canonical nested-loop order; the first
	// strictly best AIC wins.
	bestAIC := math.Inf(1)
	var best arimaOrder
	var bestCoeffs, bestW []float64
	for p := 0; p <= a.cfg.MaxP; p++ {
		for d := 0; d <= arimaMaxD; d++ {
			for q := 0; q <= a.cfg.MaxQ; q++ {
				for sp := 0; sp <= arimaMaxSP; sp++ {
					for sd := 0; sd <= arimaMaxSD; sd++ {
						for sq := 0; sq <= arimaMaxSQ; sq++ {
							o := arimaOrder{p, d, q, sp, sd, sq}
							if o.numCoeffs() == 1 && d == 0 && sd == 0 {
								continue // pure-intercept model carries no signal
							}
							ds := d*(arimaMaxSD+1) + sd
							coeffs, aic, ok := a.fit(o, ws[ds], initResids[ds], season, scratch)
							if ok && aic < bestAIC {
								bestAIC, best, bestCoeffs, bestW = aic, o, coeffs, ws[ds]
							}
						}
					}
				}
			}
		}
	}
	if bestCoeffs == nil {
		return fmt.Errorf("%w: no ARIMA candidate could be fitted", ErrNeedHistory)
	}
	residFull := make([]float64, len(bestW))
	cssInto(best, bestW, season, bestCoeffs, residFull)

	a.order = best
	a.coeffs = bestCoeffs
	a.w = bestW
	a.resid = residFull[best.burnIn(season):]
	a.season = season
	a.aic = bestAIC
	// Tails for undifferencing.
	z := differenceAll(x, 0, best.sd, season)
	a.zTail = append([]float64(nil), z[maxInt(len(z)-best.d, 0):]...)
	a.xTail = append([]float64(nil), x[maxInt(len(x)-best.sd*season, 0):]...)
	a.factor = factor
	a.fineInterval = h.Interval
	a.end = h.End()
	a.trained = true
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// differenceAll applies d ordinary and sd seasonal differences.
func differenceAll(x []float64, d, sd, season int) []float64 {
	w := append([]float64(nil), x...)
	for k := 0; k < sd; k++ {
		w = difference(w, season)
	}
	for k := 0; k < d; k++ {
		w = difference(w, 1)
	}
	return w
}

func difference(x []float64, lag int) []float64 {
	if len(x) <= lag {
		return nil
	}
	out := make([]float64, len(x)-lag)
	for i := range out {
		out[i] = x[i+lag] - x[i]
	}
	return out
}

// fit estimates one candidate: Hannan–Rissanen initialization followed by a
// Hooke–Jeeves pattern search minimizing the conditional sum of squares.
// initResid is the hoisted long-AR innovation series for this candidate's
// differencing pair. All intermediate state lives in s; the returned
// coefficient slice is freshly allocated (it survives candidate selection).
func (a *ARIMA) fit(o arimaOrder, w, initResid []float64, season int, s *fitScratch) (coeffs []float64, aic float64, ok bool) {
	t0 := o.burnIn(season)
	if len(w) < t0+16 {
		return nil, 0, false
	}

	// Hannan–Rissanen step 2: regress w_t on its own lags and the hoisted
	// lagged innovations, filling one flat design buffer row by row.
	k := o.numCoeffs()
	start := maxInt(t0, minInt(24, len(w)/4)+season)
	if start >= len(w)-8 {
		start = t0
	}
	rows := len(w) - start
	design := s.designFor(rows, k)
	ys := s.ysFor(rows)
	for t := start; t < len(w); t++ {
		r := t - start
		fillLagRow(design.Data[r*k:(r+1)*k], o, w, initResid, t, season)
		ys[r] = w[t]
	}
	beta, err := linalg.SolveRidgeInto(design, ys, 1e-6, &s.ridge)
	if err != nil {
		return nil, 0, false
	}

	// CSS refinement: pattern search around the HR estimate.
	beta = a.patternSearch(o, w, season, beta, s)
	resid := s.residFor(len(w))
	css := cssInto(o, w, season, beta, resid)
	if math.IsNaN(css) || math.IsInf(css, 0) {
		return nil, 0, false
	}
	nEff := float64(len(w) - t0) // ≥ 16 by the entry check
	aic = nEff*math.Log(css/nEff+1e-12) + 2*float64(k)
	return append([]float64(nil), beta...), aic, true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// longARResiduals fits a high-order AR (plus the seasonal lag) by OLS and
// returns its residuals aligned with w (zeros before the fit window). The
// result depends only on w and season, so Train computes it once per
// differencing pair; s provides the design and solver buffers.
func longARResiduals(w []float64, m, season int, s *fitScratch) []float64 {
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
	rows := len(w) - start
	cols := len(lags) + 1
	design := s.designFor(rows, cols)
	ys := s.ysFor(rows)
	for t := start; t < len(w); t++ {
		row := design.Data[(t-start)*cols : (t-start+1)*cols]
		row[0] = 1
		for j, lag := range lags {
			row[j+1] = w[t-lag]
		}
		ys[t-start] = w[t]
	}
	beta, err := linalg.SolveRidgeInto(design, ys, 1e-6, &s.ridge)
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

// fillLagRow writes the regression features for time t: intercept, AR lags,
// seasonal AR lags, MA lags, seasonal MA lags.
func fillLagRow(row []float64, o arimaOrder, w, resid []float64, t, season int) {
	row[0] = 1
	k := 1
	for i := 1; i <= o.p; i++ {
		row[k] = w[t-i]
		k++
	}
	for i := 1; i <= o.sp; i++ {
		row[k] = w[t-i*season]
		k++
	}
	for j := 1; j <= o.q; j++ {
		row[k] = resid[t-j]
		k++
	}
	for j := 1; j <= o.sq; j++ {
		row[k] = resid[t-j*season]
		k++
	}
}

// cssInto filters w through the ARMA recursion with the given coefficients,
// writing residuals into resid (len(w); the burn-in prefix is zeroed — the
// recursion reads it) and returning the conditional sum of squares over the
// post-burn-in range. Entries at or past the burn-in are always written
// before they are read, so resid may be reused across calls unzeroed.
func cssInto(o arimaOrder, w []float64, season int, beta, resid []float64) float64 {
	return cssIntoBounded(o, w, season, beta, resid, math.Inf(1))
}

// cssIntoBounded is cssInto with an early exit: the running sum is monotone,
// so once it exceeds limit the candidate cannot beat the incumbent and the
// scan stops (the partial residual tail is stale, but every cssInto variant
// writes resid[t] before reading it within a call, so reuse stays safe).
// The returned value is ≥ limit exactly when the scan exited early, which is
// all the pattern search's strict-improvement comparison needs — accepted
// probes always ran to completion, keeping the search trajectory identical
// to the unbounded scan.
func cssIntoBounded(o arimaOrder, w []float64, season int, beta, resid []float64, limit float64) float64 {
	if o.p <= 1 && o.q <= 1 && o.sp <= 1 && o.sq <= 1 {
		return cssSmallOrder(o, w, season, beta, resid, limit)
	}
	t0 := o.burnIn(season)
	for i := 0; i < t0; i++ {
		resid[i] = 0
	}
	css := 0.0
	for t := t0; t < len(w); t++ {
		if css > limit {
			return css
		}
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
	return css
}

// cssSmallOrder is cssIntoBounded specialized for orders with every
// component ≤ 1 — the entire default grid (MaxP/MaxQ ≤ 3 only exceed this
// for the non-seasonal terms of a minority of candidates, and the fast
// experiment profile caps at 1 everywhere). Coefficients are hoisted into
// registers and the per-lag loops disappear; the term order matches the
// general recursion exactly, so the sums are bit-identical.
func cssSmallOrder(o arimaOrder, w []float64, season int, beta, resid []float64, limit float64) float64 {
	t0 := o.burnIn(season)
	for i := 0; i < t0; i++ {
		resid[i] = 0
	}
	b0 := beta[0]
	var bAR, bSAR, bMA, bSMA float64
	k := 1
	if o.p == 1 {
		bAR = beta[k]
		k++
	}
	if o.sp == 1 {
		bSAR = beta[k]
		k++
	}
	if o.q == 1 {
		bMA = beta[k]
		k++
	}
	if o.sq == 1 {
		bSMA = beta[k]
	}
	hasP, hasSP := o.p == 1, o.sp == 1
	hasQ, hasSQ := o.q == 1, o.sq == 1
	css := 0.0
	for t := t0; t < len(w); t++ {
		if css > limit {
			return css
		}
		pred := b0
		if hasP {
			pred += bAR * w[t-1]
		}
		if hasSP {
			pred += bSAR * w[t-season]
		}
		if hasQ {
			pred += bMA * resid[t-1]
		}
		if hasSQ {
			pred += bSMA * resid[t-season]
		}
		e := w[t] - pred
		resid[t] = e
		css += e * e
	}
	return css
}

// patternSearch refines beta by Hooke–Jeeves coordinate moves on the CSS
// objective, bounded by the configured evaluation budget. This stands in for
// the iterative maximum-likelihood optimization that dominates auto-ARIMA's
// runtime. The incumbent and probe vectors are scratch-backed and swapped on
// improvement instead of reallocated per evaluation; the returned slice
// aliases s and is only valid until the scratch is reused.
func (a *ARIMA) patternSearch(o arimaOrder, w []float64, season int, beta []float64, s *fitScratch) []float64 {
	best, cand := s.searchVecs(len(beta))
	copy(best, beta)
	resid := s.residFor(len(w))
	bestCSS := cssInto(o, w, season, best, resid)
	evals := 1
	step := 0.1
	for step > 1e-4 && evals < a.cfg.SearchBudget {
		improved := false
		for j := 0; j < len(best) && evals < a.cfg.SearchBudget; j++ {
			for _, dir := range [2]float64{1, -1} {
				copy(cand, best)
				cand[j] += dir * step
				css := cssIntoBounded(o, w, season, cand, resid, bestCSS)
				evals++
				if css < bestCSS {
					best, cand = cand, best
					bestCSS = css
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

// Forecast implements Model: iterate the ARMA recursion with future
// innovations at zero, then integrate the differencing back out.
func (a *ARIMA) Forecast(horizon int) (timeseries.Series, error) {
	if !a.trained {
		return timeseries.Series{}, ErrNotTrained
	}
	if horizon <= 0 {
		return timeseries.Series{}, fmt.Errorf("forecast: non-positive horizon %d", horizon)
	}
	coarseH := (horizon + a.factor - 1) / a.factor
	o := a.order
	season := a.season

	// Extended differenced series and residuals.
	wExt := make([]float64, len(a.w), len(a.w)+coarseH)
	copy(wExt, a.w)
	eExt := make([]float64, len(a.w), len(a.w)+coarseH)
	copy(eExt[len(a.w)-len(a.resid):], a.resid)
	for h := 0; h < coarseH; h++ {
		t := len(wExt)
		pred := a.coeffs[0]
		k := 1
		at := func(arr []float64, idx int) float64 {
			if idx < 0 || idx >= len(arr) {
				return 0
			}
			return arr[idx]
		}
		for i := 1; i <= o.p; i++ {
			pred += a.coeffs[k] * at(wExt, t-i)
			k++
		}
		for i := 1; i <= o.sp; i++ {
			pred += a.coeffs[k] * at(wExt, t-i*season)
			k++
		}
		for j := 1; j <= o.q; j++ {
			pred += a.coeffs[k] * at(eExt, t-j)
			k++
		}
		for j := 1; j <= o.sq; j++ {
			pred += a.coeffs[k] * at(eExt, t-j*season)
			k++
		}
		wExt = append(wExt, pred)
		eExt = append(eExt, 0)
	}
	wf := wExt[len(a.w):]

	// Undo ordinary differencing (d ∈ {0,1} by default but handle general).
	zf := wf
	if o.d > 0 {
		zf = integrate(wf, a.zTail, o.d)
	}
	// Undo seasonal differencing.
	xf := zf
	if o.sd > 0 {
		xf = integrateSeasonal(zf, a.xTail, season, o.sd)
	}
	out := make([]float64, len(xf))
	for i, v := range xf {
		out[i] = math.Min(math.Max(v, 0), 100)
	}
	coarse := timeseries.New(a.end, time.Duration(a.factor)*a.fineInterval, out)
	return expand(coarse, a.factor, a.fineInterval, horizon), nil
}

// integrate undoes d levels of ordinary differencing given the trailing d
// values of the once-less-differenced series.
func integrate(wf, tail []float64, d int) []float64 {
	out := wf
	for k := 0; k < d; k++ {
		prev := 0.0
		if len(tail) > 0 {
			prev = tail[len(tail)-1-k]
		}
		acc := make([]float64, len(out))
		run := prev
		for i, v := range out {
			run += v
			acc[i] = run
		}
		out = acc
	}
	return out
}

// integrateSeasonal undoes sd levels of seasonal differencing given the
// trailing season·sd raw values.
func integrateSeasonal(zf, xTail []float64, season, sd int) []float64 {
	out := zf
	for k := 0; k < sd; k++ {
		acc := make([]float64, len(out))
		for i := range out {
			var prev float64
			if i < season {
				idx := len(xTail) - season + i
				if idx >= 0 && idx < len(xTail) {
					prev = xTail[idx]
				}
			} else {
				prev = acc[i-season]
			}
			acc[i] = out[i] + prev
		}
		out = acc
	}
	return out
}
