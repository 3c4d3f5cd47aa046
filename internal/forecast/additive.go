package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"seagull/internal/linalg"
	"seagull/internal/timeseries"
)

// AdditiveConfig configures the additive decomposition forecaster — the
// stand-in for Prophet (Section 5.1): "an additive model where non-linear
// trends are fit with seasonality". The model is y(t) = trend(t) +
// daily seasonality + weekly seasonality, with a piecewise-linear trend.
//
// Like Prophet, fitting is iterative (gradient descent on the penalized
// least-squares objective) and inference draws Monte-Carlo trajectories for
// uncertainty. Historically this reproduced Prophet's role as the most
// expensive model in Figure 11(a); the trainer now iterates on the
// precomputed Gram matrix (see Train), so the per-iteration cost no longer
// scales with the history length and the model trains far faster than the
// Python original — the paper's cost ordering is recorded in DESIGN.md's
// Figure 11(a) rows rather than reproduced.
type AdditiveConfig struct {
	// Iterations of batch gradient descent. Default 1500.
	Iterations int
	// Samples is the number of Monte-Carlo trajectories drawn at inference
	// for uncertainty; the forecast is their mean. Default 3000.
	Samples int
	// Seed drives the Monte-Carlo sampling.
	Seed int64
}

// Additive model constants: the design (trend changepoints and seasonal
// Fourier orders), the optimizer and the history window.
const (
	// additiveChangepoints is the number of potential trend changepoints,
	// uniformly placed over the first 80% of the history.
	additiveChangepoints = 20
	// additiveDailyOrder is the Fourier order of the daily seasonality.
	additiveDailyOrder = 8
	// additiveWeeklyOrder is the Fourier order of the weekly seasonality.
	additiveWeeklyOrder = 3
	// additiveLearningRate is the gradient-descent step.
	additiveLearningRate = 0.3
	// additiveRidge is the L2 penalty on all coefficients except the
	// intercept.
	additiveRidge = 0.05
	// additiveTrainDays limits how much trailing history is used.
	additiveTrainDays = 14
)

func (c AdditiveConfig) withDefaults() AdditiveConfig {
	if c.Iterations == 0 {
		c.Iterations = 1500
	}
	if c.Samples == 0 {
		c.Samples = 3000
	}
	return c
}

// Additive is the Prophet-analog forecaster.
//
// An Additive instance may be retrained on fresh histories: the design
// matrix, Gram accumulator and coefficient buffers are retained between
// Train calls (they dominated the model zoo's allocation profile before reuse),
// and the Monte-Carlo RNG is re-seeded at the top of Train so a reused
// model forecasts exactly like a fresh one.
type Additive struct {
	cfg AdditiveConfig

	trained  bool
	beta     []float64 // coefficients over the design features
	nTrain   int       // training points
	ppd      int
	interval time.Duration
	end      time.Time
	residual float64   // residual std, used for MC noise
	cpGrowth []float64 // fitted slope deltas at changepoints (for sampling)
	cpTimes  []float64 // changepoint positions in scaled time
	rng      *rand.Rand

	// Reused training/inference scratch.
	designBuf []float64
	yBuf      []float64
	gramBuf   []float64
	cBuf      []float64
	gradBuf   []float64
	dayTab    []float64 // daily Fourier block per slot-of-day, ppd×2·additiveDailyOrder
	rowBuf    []float64
	pointBuf  []float64
	accBuf    []float64
}

// NewAdditive returns an additive forecaster with cfg (zero fields take
// defaults).
func NewAdditive(cfg AdditiveConfig) *Additive {
	c := cfg.withDefaults()
	return &Additive{cfg: c, rng: rand.New(rand.NewSource(c.Seed ^ 0x9a0ff37))}
}

// Name implements Model.
func (a *Additive) Name() string { return NameAdditive }

// featureDim returns the width of the design matrix.
func (a *Additive) featureDim() int {
	return 2 + additiveChangepoints + 2*additiveDailyOrder + 2*additiveWeeklyOrder
}

// features fills row with the design features for absolute observation index
// t (0 = start of training): intercept, scaled time, changepoint hinges,
// daily and weekly Fourier terms. The daily block is copied from the
// slot-of-day table built in Train — only ppd distinct phases exist, so the
// per-row sin/cos evaluations (which dominated the design build) collapse to
// one table fill; the copied values are bit-identical to direct evaluation.
func (a *Additive) features(row []float64, t int) {
	ts := float64(t) / float64(max(a.nTrain-1, 1)) // scaled time
	row[0] = 1
	row[1] = ts
	k := 2
	for _, cp := range a.cpTimes {
		if ts > cp {
			row[k] = ts - cp
		} else {
			row[k] = 0
		}
		k++
	}
	nd := 2 * additiveDailyOrder
	copy(row[k:k+nd], a.dayTab[(t%a.ppd)*nd:(t%a.ppd+1)*nd])
	k += nd
	week := 2 * math.Pi * float64(t%(7*a.ppd)) / float64(7*a.ppd)
	for o := 1; o <= additiveWeeklyOrder; o++ {
		row[k] = math.Sin(float64(o) * week)
		row[k+1] = math.Cos(float64(o) * week)
		k += 2
	}
}

// buildDayTable fills the slot-of-day Fourier table with exactly the
// expressions features historically evaluated per row.
func (a *Additive) buildDayTable() {
	nd := 2 * additiveDailyOrder
	if cap(a.dayTab) < a.ppd*nd {
		a.dayTab = make([]float64, a.ppd*nd)
	}
	a.dayTab = a.dayTab[:a.ppd*nd]
	for s := 0; s < a.ppd; s++ {
		day := 2 * math.Pi * float64(s) / float64(a.ppd)
		row := a.dayTab[s*nd : (s+1)*nd]
		k := 0
		for o := 1; o <= additiveDailyOrder; o++ {
			row[k] = math.Sin(float64(o) * day)
			row[k+1] = math.Cos(float64(o) * day)
			k += 2
		}
	}
}

// Train implements Model: gradient descent on the ridge-penalized MSE of the
// additive design.
func (a *Additive) Train(history timeseries.Series) error {
	h, err := prepare(history, 2)
	if err != nil {
		return err
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > additiveTrainDays {
		h, err = h.Slice(h.Len()-additiveTrainDays*ppd, h.Len())
		if err != nil {
			return err
		}
	}
	a.ppd = ppd
	a.nTrain = h.Len()
	a.interval = h.Interval
	a.end = h.End()
	// Re-seed so a reused (worker-arena) model draws the same Monte-Carlo
	// trajectories a fresh instance would; a single New→Train→Forecast pass
	// is unaffected because Train never consumes the stream.
	a.rng.Seed(a.cfg.Seed ^ 0x9a0ff37)

	if cap(a.cpTimes) < additiveChangepoints {
		a.cpTimes = make([]float64, additiveChangepoints)
	}
	a.cpTimes = a.cpTimes[:additiveChangepoints]
	for i := range a.cpTimes {
		a.cpTimes[i] = 0.8 * float64(i+1) / float64(additiveChangepoints+1)
	}
	a.buildDayTable()

	p := a.featureDim()
	n := a.nTrain
	// Materialize the design once into the retained buffer; n×p is small
	// enough (≤ ~4032×50) but dominated the allocation profile when it was
	// rebuilt fresh for every server.
	if cap(a.designBuf) < n*p {
		a.designBuf = make([]float64, n*p)
	}
	design := a.designBuf[:n*p]
	for t := 0; t < n; t++ {
		a.features(design[t*p:(t+1)*p], t)
	}
	if cap(a.yBuf) < n {
		a.yBuf = make([]float64, n)
	}
	y := a.yBuf[:n]
	for i, v := range h.Values {
		y[i] = v / 100
	}

	// Gradient descent in Gram form: the least-squares gradient
	// Σ_t (row_t·β − y_t)·row_t equals Gβ − c with G = AᵀA and c = Aᵀy, so
	// each iteration costs p² instead of 2·n·p once G and c are accumulated —
	// a ~40× flop reduction at the default shapes. G is built by the
	// linalg fast path without materializing Aᵀ.
	dm := &linalg.Matrix{Rows: n, Cols: p, Data: design}
	if cap(a.gramBuf) < p*p {
		a.gramBuf = make([]float64, p*p)
	}
	gram := &linalg.Matrix{Rows: p, Cols: p, Data: a.gramBuf[:p*p]}
	if err := linalg.MulTransposedInto(gram, dm); err != nil {
		return err
	}
	if cap(a.cBuf) < p {
		a.cBuf = make([]float64, p)
	}
	c := a.cBuf[:p]
	clear(c)
	for t := 0; t < n; t++ {
		row := design[t*p : (t+1)*p]
		yt := y[t]
		for j, v := range row {
			c[j] += v * yt
		}
	}

	if cap(a.beta) < p {
		a.beta = make([]float64, p)
	}
	beta := a.beta[:p]
	clear(beta)
	if cap(a.gradBuf) < p {
		a.gradBuf = make([]float64, p)
	}
	grad := a.gradBuf[:p]
	lr := additiveLearningRate
	for it := 0; it < a.cfg.Iterations; it++ {
		for j := 0; j < p; j++ {
			row := gram.Data[j*p : (j+1)*p]
			s := 0.0
			for k, b := range beta {
				s += row[k] * b
			}
			grad[j] = s - c[j]
		}
		inv := 1 / float64(n)
		for j := range beta {
			g := grad[j] * inv
			if j > 0 {
				g += additiveRidge * beta[j] * inv
			}
			beta[j] -= lr * g
		}
	}
	a.beta = beta

	// Residual std for Monte-Carlo noise, and the fitted slope deltas for
	// future changepoint sampling (Prophet's trend uncertainty).
	sse := 0.0
	for t := 0; t < n; t++ {
		row := design[t*p : (t+1)*p]
		s := 0.0
		for j, b := range beta {
			s += b * row[j]
		}
		d := s - y[t]
		sse += d * d
	}
	a.residual = math.Sqrt(sse / float64(n))
	a.cpGrowth = append(a.cpGrowth[:0], beta[2:2+additiveChangepoints]...)
	a.trained = true
	return nil
}

// Forecast implements Model: the mean of Samples Monte-Carlo trajectories.
// Each trajectory evaluates the fitted model over the horizon, adds sampled
// future trend changes (Laplace-distributed with the scale of the fitted
// changepoint magnitudes, as Prophet does) and observation noise.
func (a *Additive) Forecast(horizon int) (timeseries.Series, error) {
	if !a.trained {
		return timeseries.Series{}, ErrNotTrained
	}
	if horizon <= 0 {
		return timeseries.Series{}, fmt.Errorf("forecast: non-positive horizon %d", horizon)
	}
	p := a.featureDim()
	// Point component of each future observation is shared by all samples.
	if cap(a.pointBuf) < horizon {
		a.pointBuf = make([]float64, horizon)
	}
	point := a.pointBuf[:horizon]
	if cap(a.rowBuf) < p {
		a.rowBuf = make([]float64, p)
	}
	row := a.rowBuf[:p]
	for i := 0; i < horizon; i++ {
		a.features(row, a.nTrain+i)
		s := 0.0
		for j, b := range a.beta {
			s += b * row[j]
		}
		point[i] = s
	}

	// Laplace scale of historic slope changes drives trend uncertainty.
	scale := 0.0
	for _, g := range a.cpGrowth {
		scale += math.Abs(g)
	}
	if len(a.cpGrowth) > 0 {
		scale /= float64(len(a.cpGrowth))
	}

	if cap(a.accBuf) < horizon {
		a.accBuf = make([]float64, horizon)
	}
	acc := a.accBuf[:horizon]
	clear(acc)
	for s := 0; s < a.cfg.Samples; s++ {
		// Sample one future changepoint location and slope delta.
		cpAt := a.rng.Intn(horizon + 1)
		delta := laplace(a.rng, scale)
		for i := 0; i < horizon; i++ {
			v := point[i]
			if i >= cpAt {
				v += delta * float64(i-cpAt) / float64(max(a.nTrain-1, 1))
			}
			v += a.rng.NormFloat64() * a.residual
			acc[i] += v
		}
	}
	out := make([]float64, horizon)
	inv := 1 / float64(a.cfg.Samples)
	for i := range out {
		out[i] = math.Min(math.Max(acc[i]*inv*100, 0), 100)
	}
	return timeseries.New(a.end, a.interval, out), nil
}

// laplace draws a Laplace(0, b) variate.
func laplace(rng *rand.Rand, b float64) float64 {
	u := rng.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}
