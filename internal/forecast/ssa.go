package forecast

import (
	"fmt"
	"time"

	"seagull/internal/linalg"
	"seagull/internal/timeseries"
)

// SSA model constants.
const (
	// ssaWindowDays is the embedding window in days; the window must cover
	// the longest period to be captured (one day).
	ssaWindowDays = 1
	// ssaRank is the number of leading singular triples kept for
	// reconstruction and forecasting. Low ranks smooth harder, which both
	// stabilizes the recurrence on noisy servers and markedly improves
	// low-load-window accuracy (`seagull-experiments -run fig11bcd`).
	ssaRank = 12
	// ssaGranularity is the internal sampling interval: SSA runs on a
	// coarsened copy of the series and the forecast is expanded back, which
	// keeps the trajectory-matrix SVD cheap.
	ssaGranularity = 30 * time.Minute
	// ssaTrainDays limits how much trailing history is used.
	ssaTrainDays = 7
	// ssaOversample is the number of extra randomized-SVD sketch columns
	// beyond ssaRank. It is deliberately deep: it pushes the sketch boundary
	// below the noise shelf of load spectra, which is what lets the subspace
	// iteration resolve the trailing kept triples to forecasting tolerance.
	ssaOversample = 24
	// ssaPowerIters is the number of subspace-iteration rounds sharpening
	// the randomized sketch.
	ssaPowerIters = 6
)

// SSAConfig configures the singular spectrum analysis forecaster — the
// stand-in for NimbusML's SsaForecaster (Section 5.1), which the paper uses
// "to transform forecasts".
type SSAConfig struct {
	// RandomizedSVD switches the trajectory-matrix decomposition to the
	// seeded randomized range-finder SVD, which extracts only the ssaRank
	// leading triples from a ssaRank+ssaOversample sketch of the window-side
	// Gram matrix instead of running full Jacobi sweeps over every column
	// pair. The resulting forecasts match the exact decomposition to ≤1e-6
	// (see TestSSARandomizedMatchesJacobi) at a fraction of the cost.
	// Default false (exact Jacobi).
	RandomizedSVD bool
	// Seed drives the randomized range finder's Gaussian test matrix; the
	// decomposition is deterministic for a fixed seed. Default 0.
	Seed int64
}

// SSA is a singular-spectrum-analysis forecaster: it embeds the series into
// a Hankel trajectory matrix, keeps the leading singular triples, and
// forecasts with the linear recurrence formula derived from the signal
// subspace (recurrent SSA forecasting).
//
// An SSA instance may be retrained on fresh histories; the trajectory
// matrix, SVD working set and coefficient buffers are retained between Train
// calls, so a model reused as a per-worker arena across many servers
// allocates almost nothing after the first fit.
type SSA struct {
	cfg SSAConfig

	trained      bool
	fineInterval time.Duration
	factor       int       // coarse→fine expansion
	coeffs       []float64 // linear recurrence coefficients a_1..a_{L-1}
	tail         []float64 // last L-1 reconstructed values, oldest first
	end          time.Time // end of training history (fine granularity)

	// Reused training scratch.
	hankelBuf  []float64
	ucol, vcol []float64
	svdScratch linalg.SVDScratch
}

// NewSSA returns an SSA forecaster with cfg.
func NewSSA(cfg SSAConfig) *SSA { return &SSA{cfg: cfg} }

// DeterministicInference implements InferenceDeterministic: the linear
// recurrence consumes only the coefficients and tail Train established.
func (s *SSA) DeterministicInference() bool { return true }

// Name implements Model.
func (s *SSA) Name() string { return NameSSA }

// Train implements Model: decompose the trailing ssaTrainDays of history and
// derive the recurrence coefficients.
func (s *SSA) Train(history timeseries.Series) error {
	h, err := prepare(history, 3)
	if err != nil {
		return err
	}
	// Use at most ssaTrainDays of trailing history.
	ppd := h.PointsPerDay()
	if h.NumDays() > ssaTrainDays {
		h, err = h.Slice(h.Len()-ssaTrainDays*ppd, h.Len())
		if err != nil {
			return err
		}
	}
	coarse, factor, err := resampleTo(h, ssaGranularity)
	if err != nil {
		return err
	}
	coarse = coarse.FillGaps()
	x := coarse.Values
	cppd := coarse.PointsPerDay()
	// At least three days of history under a one-day window: K > L always.
	l := ssaWindowDays * cppd
	if l < 2 {
		return fmt.Errorf("%w: series too short for SSA window", ErrNeedHistory)
	}

	// Embed into the L×K trajectory matrix, filled in scratch.
	k := len(x) - l + 1
	if cap(s.hankelBuf) < l*k {
		s.hankelBuf = make([]float64, l*k)
	}
	hankel := linalg.Matrix{Rows: l, Cols: k, Data: s.hankelBuf[:l*k]}
	for i := 0; i < l; i++ {
		copy(hankel.Data[i*k:(i+1)*k], x[i:i+k])
	}

	var svd *linalg.SVD
	if s.cfg.RandomizedSVD {
		svd, err = linalg.RandomizedSVDScratch(&hankel, ssaRank,
			ssaOversample, ssaPowerIters, s.cfg.Seed, &s.svdScratch)
	} else {
		svd, err = linalg.ComputeSVDScratch(&hankel, &s.svdScratch)
	}
	if err != nil {
		return err
	}
	rank := min(ssaRank, len(svd.S))
	// Drop numerically zero triples.
	for rank > 1 && svd.S[rank-1] < 1e-10*svd.S[0] {
		rank--
	}

	// Recurrent forecasting coefficients. With π_r the last coordinate of
	// each left singular vector and ν² = Σπ_r², the recurrence is
	// x_t = Σ_{j=1}^{L-1} a_j x_{t-j}, a = (1/(1-ν²)) Σ_r π_r U_r^∇.
	nu2 := 0.0
	for r := 0; r < rank; r++ {
		pi := svd.U.At(l-1, r)
		nu2 += pi * pi
	}
	if nu2 >= 1-1e-9 {
		return fmt.Errorf("forecast: SSA verticality coefficient ν²=%.6f too close to 1", nu2)
	}
	if cap(s.coeffs) < l-1 {
		s.coeffs = make([]float64, l-1)
	}
	a := s.coeffs[:l-1] // a[0] multiplies x_{t-1}
	clear(a)
	for r := 0; r < rank; r++ {
		pi := svd.U.At(l-1, r)
		if pi == 0 {
			continue
		}
		for i := 0; i < l-1; i++ {
			// U_r^∇ coordinate i corresponds to lag L-1-i.
			a[l-2-i] += pi * svd.U.At(i, r)
		}
	}
	for i := range a {
		a[i] /= 1 - nu2
	}

	// Forecast seed values: the rank-r signal reconstruction at the last L-1
	// positions only. Position t of the diagonal-averaged signal is
	// (1/cnt_t)·Σ_r σ_r Σ_{i+j=t} U_ir·V_jr with i∈[0,L), j∈[0,K), so the
	// full L×K reconstruction matrix the textbook pipeline materializes is
	// never needed — only the ≤L-term anti-diagonal sums of the final L-1
	// positions.
	if cap(s.tail) < l-1 {
		s.tail = make([]float64, l-1)
	}
	tail := s.tail[:l-1]
	clear(tail)
	if cap(s.ucol) < l {
		s.ucol = make([]float64, l)
	}
	if cap(s.vcol) < k {
		s.vcol = make([]float64, k)
	}
	ucol, vcol := s.ucol[:l], s.vcol[:k]
	for r := 0; r < rank; r++ {
		sr := svd.S[r]
		for i := 0; i < l; i++ {
			ucol[i] = svd.U.At(i, r)
		}
		for j := 0; j < k; j++ {
			vcol[j] = svd.V.At(j, r)
		}
		for idx := range tail {
			t := k + idx
			hi := min(l-1, t)
			acc := 0.0
			for i := t - k + 1; i <= hi; i++ {
				acc += ucol[i] * vcol[t-i]
			}
			tail[idx] += sr * acc
		}
	}
	for idx := range tail {
		t := k + idx
		cnt := min(l-1, t) - (t - k + 1) + 1
		tail[idx] /= float64(cnt)
	}

	s.coeffs = a
	s.tail = tail
	s.factor = factor
	s.fineInterval = h.Interval
	s.end = h.End()
	s.trained = true
	return nil
}

// Forecast implements Model: apply the linear recurrence beyond the end of
// the training history and expand back to the original granularity.
func (s *SSA) Forecast(horizon int) (timeseries.Series, error) {
	if !s.trained {
		return timeseries.Series{}, ErrNotTrained
	}
	if horizon <= 0 {
		return timeseries.Series{}, fmt.Errorf("forecast: non-positive horizon %d", horizon)
	}
	coarseH := (horizon + s.factor - 1) / s.factor
	// Capacity covers every recurrence step: the window slides forward through
	// the buffer (buf = append(buf[1:], v)) without ever reallocating.
	buf := make([]float64, len(s.tail), len(s.tail)+coarseH)
	copy(buf, s.tail)
	out := make([]float64, 0, coarseH)
	for t := 0; t < coarseH; t++ {
		v := 0.0
		for j, aj := range s.coeffs {
			// coeffs[j] multiplies x_{t-(j+1)}: the most recent value is the
			// last element of buf.
			v += aj * buf[len(buf)-1-j]
		}
		// Load percentages live in [0,100]; keep the recurrence from
		// drifting out of the physical range.
		if v < 0 {
			v = 0
		} else if v > 100 {
			v = 100
		}
		out = append(out, v)
		buf = append(buf[1:], v)
	}
	coarse := timeseries.New(s.end, time.Duration(s.factor)*s.fineInterval, out)
	return expand(coarse, s.factor, s.fineInterval, horizon), nil
}
