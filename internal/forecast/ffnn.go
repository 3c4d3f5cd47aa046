package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"seagull/internal/timeseries"
)

// FFNN model constants. The network shape, optimizer and sampling are
// fixed: production and the experiments train the same network and differ
// only in the epoch budget.
const (
	// ffnnContextDays is the look-back window fed to the network, in days.
	ffnnContextDays = 2
	// ffnnHidden is the hidden layer width.
	ffnnHidden = 48
	// ffnnLearningRate is the SGD step before per-epoch decay.
	ffnnLearningRate = 0.05
	// ffnnMomentum is the SGD momentum coefficient.
	ffnnMomentum = 0.9
	// ffnnGranularity is the internal sampling interval (the network
	// predicts a full coarse day in one shot).
	ffnnGranularity = 30 * time.Minute
	// ffnnTrainDays limits how much trailing history is used.
	ffnnTrainDays = 14
)

// FFNNConfig configures the feed-forward network forecaster — the stand-in
// for GluonTS's simple feed-forward estimator, the estimator the paper found
// most accurate among the GluonTS models it tried (Section 5.1).
type FFNNConfig struct {
	// Epochs is the number of passes over the training windows. Default 25.
	Epochs int
	// Seed drives weight initialization and sample shuffling.
	Seed int64
}

func (c FFNNConfig) withDefaults() FFNNConfig {
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	return c
}

// FFNN is a one-hidden-layer feed-forward regression network mapping a
// context window of past load to the next day of load (multi-output), trained
// with SGD with momentum on sliding windows. Inputs and outputs are scaled
// to [0,1] (load percentage / 100).
//
// An FFNN may be retrained on fresh histories; weights, scratch and the
// shuffling RNG are retained (the RNG is re-seeded at the top of Train), so
// a model reused as a per-worker arena across many servers allocates almost
// nothing after the first fit and trains exactly like a fresh instance.
type FFNN struct {
	cfg FFNNConfig

	trained       bool
	inDim, outDim int
	w1, b1        []float64 // inDim×Hidden weights, Hidden biases
	w2, b2        []float64 // Hidden×outDim weights, outDim biases
	context       []float64 // final context window at coarse granularity
	factor        int
	fineInterval  time.Duration
	end           time.Time

	// Reused training state.
	rng       *rand.Rand
	weightBuf []float64
	scratch   []float64
	xBuf      []float64
	orderBuf  []int
	active    []int32
}

// NewFFNN returns a feed-forward forecaster with cfg (zero fields take
// defaults).
func NewFFNN(cfg FFNNConfig) *FFNN { return &FFNN{cfg: cfg.withDefaults()} }

// DeterministicInference implements InferenceDeterministic: inference is a
// forward pass over the trained weights; the RNG is consumed by Train only.
func (f *FFNN) DeterministicInference() bool { return true }

// Name implements Model.
func (f *FFNN) Name() string { return NameFFNN }

// Train implements Model.
func (f *FFNN) Train(history timeseries.Series) error {
	h, err := prepare(history, ffnnContextDays+1)
	if err != nil {
		return err
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > ffnnTrainDays {
		h, err = h.Slice(h.Len()-ffnnTrainDays*ppd, h.Len())
		if err != nil {
			return err
		}
	}
	coarse, factor, err := resampleTo(h, ffnnGranularity)
	if err != nil {
		return err
	}
	coarse = coarse.FillGaps()
	cppd := coarse.PointsPerDay()
	f.inDim = ffnnContextDays * cppd
	f.outDim = cppd

	if cap(f.xBuf) < coarse.Len() {
		f.xBuf = make([]float64, coarse.Len())
	}
	x := f.xBuf[:coarse.Len()]
	for i, v := range coarse.Values {
		x[i] = v / 100
	}
	nSamples := len(x) - f.inDim - f.outDim + 1
	if nSamples < 1 {
		return fmt.Errorf("%w: %d coarse points for context %d + horizon %d",
			ErrNeedHistory, len(x), f.inDim, f.outDim)
	}

	seed := f.cfg.Seed ^ 0x5ea9011
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(seed))
	} else {
		f.rng.Seed(seed)
	}
	rng := f.rng
	nw1, nb1 := f.inDim*ffnnHidden, ffnnHidden
	nw2, nb2 := ffnnHidden*f.outDim, f.outDim
	if cap(f.weightBuf) < nw1+nb1+nw2+nb2 {
		f.weightBuf = make([]float64, nw1+nb1+nw2+nb2)
	}
	wb := f.weightBuf
	f.w1, wb = wb[:nw1:nw1], wb[nw1:]
	f.b1, wb = wb[:nb1:nb1], wb[nb1:]
	f.w2, wb = wb[:nw2:nw2], wb[nw2:]
	f.b2 = wb[:nb2:nb2]
	initWeights(rng, f.w1, f.inDim)
	zeroFloats(f.b1)
	initWeights(rng, f.w2, ffnnHidden)
	zeroFloats(f.b2)

	f.trainPerSample(x, f.permInto(rng, nSamples))

	f.context = append(f.context[:0], x[len(x)-f.inDim:]...)
	f.factor = factor
	f.fineInterval = h.Interval
	f.end = h.End()
	f.trained = true
	return nil
}

// permInto reproduces rng.Perm(n)'s draw sequence bit-identically into a
// reused buffer.
func (f *FFNN) permInto(rng *rand.Rand, n int) []int {
	if cap(f.orderBuf) < n {
		f.orderBuf = make([]int, n)
	}
	m := f.orderBuf[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// trainPerSample is the per-sample SGD-with-momentum trainer.
func (f *FFNN) trainPerSample(x []float64, order []int) {
	// All training scratch — momentum state plus forward/backward buffers —
	// lives in one zeroed slab reused across epochs, samples and Train calls.
	total := len(f.w1) + len(f.b1) + len(f.w2) + len(f.b2) + 2*ffnnHidden + 2*f.outDim
	if cap(f.scratch) < total {
		f.scratch = make([]float64, total)
	}
	slab := f.scratch[:total]
	zeroFloats(slab)
	cut := func(n int) []float64 {
		out := slab[:n:n]
		slab = slab[n:]
		return out
	}
	vw1, vb1, vw2, vb2 := cut(len(f.w1)), cut(len(f.b1)), cut(len(f.w2)), cut(len(f.b2))
	hidden, dHidden := cut(ffnnHidden), cut(ffnnHidden)
	out, dOut := cut(f.outDim), cut(f.outDim)
	// Indices of hidden units with non-zero gradient this sample; the W1
	// update touches only these. Per-unit updates are independent, so
	// iterating the compacted set is numerically identical to scanning all
	// units and skipping zeros.
	if cap(f.active) < ffnnHidden {
		f.active = make([]int32, 0, ffnnHidden)
	}
	active := f.active[:0]

	lr := ffnnLearningRate
	mom := ffnnMomentum
	for epoch := 0; epoch < f.cfg.Epochs; epoch++ {
		// Simple learning-rate decay stabilizes the final weights.
		step := lr / (1 + 0.1*float64(epoch))
		for _, s := range order {
			in := x[s : s+f.inDim]
			target := x[s+f.inDim : s+f.inDim+f.outDim]
			f.forward(in, hidden, out)

			// Backprop of 0.5·MSE. The hidden gradient and the W2 update share
			// one pass over each W2 row: the row is read (pre-update weights)
			// to accumulate dHidden[k], then updated in place.
			for j := range out {
				dOut[j] = (out[j] - target[j]) / float64(f.outDim)
			}
			active = active[:0]
			for k := range hidden {
				if hidden[k] <= 0 { // ReLU gate
					dHidden[k] = 0
					continue
				}
				hk := hidden[k]
				w2row := f.w2[k*f.outDim : (k+1)*f.outDim]
				v2row := vw2[k*f.outDim : (k+1)*f.outDim][:len(w2row)]
				g := 0.0
				for j, dj := range dOut {
					g += dj * w2row[j]
					v := mom*v2row[j] - step*dj*hk
					v2row[j] = v
					w2row[j] += v
				}
				dHidden[k] = g
				if g != 0 {
					active = append(active, int32(k))
				}
			}
			for j := range dOut {
				vb2[j] = mom*vb2[j] - step*dOut[j]
				f.b2[j] += vb2[j]
			}
			for i, xi := range in {
				if xi == 0 {
					continue
				}
				w1row := f.w1[i*ffnnHidden : (i+1)*ffnnHidden]
				v1row := vw1[i*ffnnHidden : (i+1)*ffnnHidden][:len(w1row)]
				for _, k := range active {
					dh := dHidden[k]
					v := mom*v1row[k] - step*dh*xi
					v1row[k] = v
					w1row[k] += v
				}
			}
			for k := range dHidden {
				vb1[k] = mom*vb1[k] - step*dHidden[k]
				f.b1[k] += vb1[k]
			}
		}
	}
	f.active = active[:0]
}

func zeroFloats(s []float64) { clear(s) }

// initWeights fills w with He-initialized weights for ReLU.
func initWeights(rng *rand.Rand, w []float64, fanIn int) {
	scale := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * scale
	}
}

// forward runs the network: hidden = relu(in·W1 + b1), out = hidden·W2 + b2.
func (f *FFNN) forward(in, hidden, out []float64) {
	for k := range hidden {
		hidden[k] = f.b1[k]
	}
	for i, xi := range in {
		if xi == 0 {
			continue
		}
		row := f.w1[i*ffnnHidden : (i+1)*ffnnHidden]
		hh := hidden[:len(row)] // bounds-check hint: len(hidden) == len(row)
		for k, w := range row {
			hh[k] += xi * w
		}
	}
	for k := range hidden {
		if hidden[k] < 0 {
			hidden[k] = 0
		}
	}
	copy(out, f.b2)
	for k, hk := range hidden {
		if hk == 0 {
			continue
		}
		row := f.w2[k*f.outDim : (k+1)*f.outDim]
		oo := out[:len(row)]
		for j, w := range row {
			oo[j] += hk * w
		}
	}
}

// Forecast implements Model: roll the network forward one coarse day at a
// time until the horizon is covered, then expand to the fine granularity.
func (f *FFNN) Forecast(horizon int) (timeseries.Series, error) {
	if !f.trained {
		return timeseries.Series{}, ErrNotTrained
	}
	if horizon <= 0 {
		return timeseries.Series{}, fmt.Errorf("forecast: non-positive horizon %d", horizon)
	}
	coarseH := (horizon + f.factor - 1) / f.factor
	ctx := append([]float64(nil), f.context...)
	hidden := make([]float64, ffnnHidden)
	day := make([]float64, f.outDim)
	// Round the capacity up to whole predicted days so the append loop never
	// reallocates.
	preds := make([]float64, 0, ((coarseH+f.outDim-1)/f.outDim)*f.outDim)
	for len(preds) < coarseH {
		f.forward(ctx, hidden, day)
		for _, v := range day {
			preds = append(preds, math.Min(math.Max(v*100, 0), 100))
		}
		// Slide the context forward by one predicted day.
		ctx = append(ctx[f.outDim:], day...)
	}
	preds = preds[:coarseH]
	coarse := timeseries.New(f.end, time.Duration(f.factor)*f.fineInterval, preds)
	return expand(coarse, f.factor, f.fineInterval, horizon), nil
}
