package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"seagull/internal/timeseries"
)

// FFNNConfig configures the feed-forward network forecaster — the stand-in
// for GluonTS's simple feed-forward estimator, the estimator the paper found
// most accurate among the GluonTS models it tried (Section 5.1).
type FFNNConfig struct {
	// ContextDays is the look-back window fed to the network, in days.
	// Default 2.
	ContextDays int
	// Hidden is the hidden layer width. Default 48.
	Hidden int
	// Epochs is the number of passes over the training windows. Default 25.
	Epochs int
	// LearningRate for SGD with momentum. Default 0.05.
	LearningRate float64
	// Momentum coefficient. Default 0.9.
	Momentum float64
	// BatchSize is the SGD minibatch size. The default (1) runs the
	// historical per-sample trainer bit-identically. Larger batches take the
	// fused vectorized path: the forward and backward passes stream the
	// weight matrices once per batch instead of once per sample and the
	// momentum update applies once per batch to the batch-sum gradient
	// (the linear scaling rule — the effective step per window visit stays
	// on par with per-sample SGD, so LearningRate keeps its meaning). The
	// trained weights still differ from per-sample SGD (the whole batch's
	// gradient is taken at the same stale weights), but the forecast
	// accuracy is equivalent — see TestFFNNBatchedAccuracyEquivalent for
	// the recorded story — which is why the figure experiments opt in while
	// the default stays 1.
	BatchSize int
	// Granularity is the internal sampling interval (the network predicts a
	// full coarse day in one shot). Default 30 minutes.
	Granularity time.Duration
	// TrainDays limits how much trailing history is used. Default 14.
	TrainDays int
	// Seed drives weight initialization and sample shuffling.
	Seed int64
}

func (c FFNNConfig) withDefaults() FFNNConfig {
	if c.ContextDays == 0 {
		c.ContextDays = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 48
	}
	if c.Epochs == 0 {
		c.Epochs = 25
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.Granularity == 0 {
		c.Granularity = 30 * time.Minute
	}
	if c.TrainDays == 0 {
		c.TrainDays = 14
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
	h, err := prepare(history, f.cfg.ContextDays+1)
	if err != nil {
		return err
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > f.cfg.TrainDays {
		h, err = h.Slice(h.Len()-f.cfg.TrainDays*ppd, h.Len())
		if err != nil {
			return err
		}
	}
	coarse, factor, err := resampleTo(h, f.cfg.Granularity)
	if err != nil {
		return err
	}
	coarse = coarse.FillGaps()
	cppd := coarse.PointsPerDay()
	f.inDim = f.cfg.ContextDays * cppd
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
	nw1, nb1 := f.inDim*f.cfg.Hidden, f.cfg.Hidden
	nw2, nb2 := f.cfg.Hidden*f.outDim, f.outDim
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
	initWeights(rng, f.w2, f.cfg.Hidden)
	zeroFloats(f.b2)

	order := f.permInto(rng, nSamples)
	batch := f.cfg.BatchSize
	if batch > nSamples {
		batch = nSamples
	}
	if batch <= 1 {
		f.trainPerSample(x, order)
	} else {
		f.trainMinibatch(x, order, batch)
	}

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

// sizeScratch zeroes the shared training slab at the given total size and
// returns the cutter the trainer paths use to carve their regions, in a
// fixed order.
func (f *FFNN) sizeScratch(total int) func(n int) []float64 {
	if cap(f.scratch) < total {
		f.scratch = make([]float64, total)
	}
	s := f.scratch[:total]
	zeroFloats(s)
	return func(n int) []float64 {
		out := s[:n:n]
		s = s[n:]
		return out
	}
}

// trainPerSample is the historical per-sample SGD trainer, preserved
// bit-identically as the BatchSize=1 path (the default).
func (f *FFNN) trainPerSample(x []float64, order []int) {
	// All training scratch — momentum state plus forward/backward buffers —
	// lives in one backing slab reused across epochs, samples and Train calls.
	cut := f.sizeScratch(len(f.w1) + len(f.b1) + len(f.w2) + len(f.b2) + 2*f.cfg.Hidden + 2*f.outDim)
	vw1, vb1, vw2, vb2 := cut(len(f.w1)), cut(len(f.b1)), cut(len(f.w2)), cut(len(f.b2))
	hidden, dHidden := cut(f.cfg.Hidden), cut(f.cfg.Hidden)
	out, dOut := cut(f.outDim), cut(f.outDim)
	// Indices of hidden units with non-zero gradient this sample; the W1
	// update touches only these. Per-unit updates are independent, so
	// iterating the compacted set is numerically identical to scanning all
	// units and skipping zeros.
	if cap(f.active) < f.cfg.Hidden {
		f.active = make([]int32, 0, f.cfg.Hidden)
	}
	active := f.active[:0]

	lr := f.cfg.LearningRate
	mom := f.cfg.Momentum
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
				w1row := f.w1[i*f.cfg.Hidden : (i+1)*f.cfg.Hidden]
				v1row := vw1[i*f.cfg.Hidden : (i+1)*f.cfg.Hidden][:len(w1row)]
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

// trainMinibatch is the fused vectorized trainer for BatchSize > 1. Each
// batch gathers its sample windows once, runs the forward and backward
// passes with the weight matrices streamed once per batch rather than once
// per sample, accumulates the batch-sum gradient, and applies a single
// momentum update (see the BatchSize doc for the scaling rationale).
func (f *FFNN) trainMinibatch(x []float64, order []int, batch int) {
	hid, outD, inD := f.cfg.Hidden, f.outDim, f.inDim
	nw1, nb1, nw2, nb2 := len(f.w1), len(f.b1), len(f.w2), len(f.b2)
	cut := f.sizeScratch(2*(nw1+nb1+nw2+nb2) + batch*(inD+2*hid+2*outD))
	vw1, vb1, vw2, vb2 := cut(nw1), cut(nb1), cut(nw2), cut(nb2)
	gw1, gb1, gw2, gb2 := cut(nw1), cut(nb1), cut(nw2), cut(nb2)
	xbT := cut(batch * inD)  // inputs, transposed: feature-major inD×B
	tb := cut(batch * outD)  // targets, sample-major B×outD
	hbuf := cut(batch * hid) // hidden activations, sample-major B×hid
	dh := cut(batch * hid)   // hidden gradients, sample-major B×hid
	ob := cut(batch * outD)  // outputs then output gradients, B×outD

	lr := f.cfg.LearningRate
	mom := f.cfg.Momentum
	for epoch := 0; epoch < f.cfg.Epochs; epoch++ {
		step := lr / (1 + 0.1*float64(epoch))
		for off := 0; off < len(order); {
			// The last batch of an epoch shortens so the tail windows are
			// visited too.
			bs := min(batch, len(order)-off)
			samples := order[off : off+bs]
			off += bs

			// Gather the batch: inputs feature-major so the forward pass can
			// stream each W1 row across all samples, targets sample-major.
			for bi, s := range samples {
				in := x[s : s+inD]
				for i, v := range in {
					xbT[i*batch+bi] = v
				}
				copy(tb[bi*outD:(bi+1)*outD], x[s+inD:s+inD+outD])
			}

			// Forward: H = relu(X·W1 + b1), O = H·W2 + b2. The W1 pass blocks
			// four samples per row so each loaded weight feeds four
			// independent accumulator chains (the scalar loop is
			// ILP-bound, not memory-bound, at these layer shapes).
			for bi := 0; bi < bs; bi++ {
				copy(hbuf[bi*hid:(bi+1)*hid], f.b1)
			}
			for i := 0; i < inD; i++ {
				xrow := xbT[i*batch : i*batch+bs]
				w1row := f.w1[i*hid : (i+1)*hid]
				bi := 0
				for ; bi+4 <= bs; bi += 4 {
					scatter4(hbuf[bi*hid:], hid, w1row,
						xrow[bi], xrow[bi+1], xrow[bi+2], xrow[bi+3])
				}
				for ; bi < bs; bi++ {
					xi := xrow[bi]
					if xi == 0 {
						continue
					}
					hrow := hbuf[bi*hid : (bi+1)*hid][:len(w1row)]
					for k, w := range w1row {
						hrow[k] += xi * w
					}
				}
			}
			for i := 0; i < bs*hid; i++ {
				if hbuf[i] < 0 {
					hbuf[i] = 0
				}
			}
			for bi := 0; bi < bs; bi++ {
				copy(ob[bi*outD:(bi+1)*outD], f.b2)
			}
			// The W2 passes iterate (unit, sample) and skip gated units —
			// post-ReLU roughly half the activations are exactly zero, and
			// skipping whole rows beats four-wide blocking here.
			for k := 0; k < hid; k++ {
				w2row := f.w2[k*outD : (k+1)*outD]
				for bi := 0; bi < bs; bi++ {
					hk := hbuf[bi*hid+k]
					if hk == 0 {
						continue
					}
					orow := ob[bi*outD : (bi+1)*outD][:len(w2row)]
					for j, w := range w2row {
						orow[j] += hk * w
					}
				}
			}

			// Output gradient of 0.5·MSE, in place over the outputs.
			for bi := 0; bi < bs; bi++ {
				orow := ob[bi*outD : (bi+1)*outD]
				trow := tb[bi*outD : (bi+1)*outD][:len(orow)]
				for j := range orow {
					orow[j] = (orow[j] - trow[j]) / float64(outD)
				}
			}

			// Backward: one pass over each W2 row serves both the hidden
			// gradient (dH = dO·W2ᵀ, ReLU-gated) and the W2 gradient
			// accumulation (gW2 += HᵀdO); gated units skip the row.
			for k := 0; k < hid; k++ {
				w2row := f.w2[k*outD : (k+1)*outD]
				g2row := gw2[k*outD : (k+1)*outD][:len(w2row)]
				for bi := 0; bi < bs; bi++ {
					hk := hbuf[bi*hid+k]
					if hk <= 0 {
						dh[bi*hid+k] = 0
						continue
					}
					orow := ob[bi*outD : (bi+1)*outD][:len(w2row)]
					g := 0.0
					for j, dj := range orow {
						g += dj * w2row[j]
						g2row[j] += hk * dj
					}
					dh[bi*hid+k] = g
				}
			}
			for bi := 0; bi < bs; bi++ {
				orow := ob[bi*outD : (bi+1)*outD][:len(gb2)]
				for j, dj := range orow {
					gb2[j] += dj
				}
			}
			// gW1 += XᵀdH, gathered four samples per row: one store per
			// gradient element, four multiply-adds per loop iteration.
			for i := 0; i < inD; i++ {
				xrow := xbT[i*batch : i*batch+bs]
				g1row := gw1[i*hid : (i+1)*hid]
				bi := 0
				for ; bi+4 <= bs; bi += 4 {
					gather4(g1row, dh[bi*hid:], hid,
						xrow[bi], xrow[bi+1], xrow[bi+2], xrow[bi+3])
				}
				for ; bi < bs; bi++ {
					xi := xrow[bi]
					if xi == 0 {
						continue
					}
					dhrow := dh[bi*hid : (bi+1)*hid][:len(g1row)]
					for k, d := range dhrow {
						g1row[k] += xi * d
					}
				}
			}
			{
				bi := 0
				for ; bi+4 <= bs; bi += 4 {
					gather4(gb1, dh[bi*hid:], hid, 1, 1, 1, 1)
				}
				for ; bi < bs; bi++ {
					dhrow := dh[bi*hid : (bi+1)*hid][:len(gb1)]
					for k, d := range dhrow {
						gb1[k] += d
					}
				}
			}

			// One momentum step on the batch-sum gradient (the linear
			// scaling rule: summing rather than averaging keeps the total
			// displacement per epoch on par with per-sample SGD, which is
			// what makes the two trainers accuracy-equivalent). Gradients
			// are re-zeroed in the same pass.
			updateMomentum(f.w1, vw1, gw1, mom, step)
			updateMomentum(f.b1, vb1, gb1, mom, step)
			updateMomentum(f.w2, vw2, gw2, mom, step)
			updateMomentum(f.b2, vb2, gb2, mom, step)
		}
	}
}

// scatter4 accumulates one weight row into four consecutive stride-spaced
// destination rows: dst[b·stride+k] += x_b·w[k] for b in 0..3. The four
// independent add chains give the scalar loop instruction-level parallelism.
func scatter4(dst []float64, stride int, w []float64, x0, x1, x2, x3 float64) {
	d0 := dst[0*stride : 0*stride+len(w)]
	d1 := dst[1*stride : 1*stride+len(w)]
	d2 := dst[2*stride : 2*stride+len(w)]
	d3 := dst[3*stride : 3*stride+len(w)]
	k := 0
	for ; k+2 <= len(w); k += 2 {
		wa, wb := w[k], w[k+1]
		d0[k] += x0 * wa
		d0[k+1] += x0 * wb
		d1[k] += x1 * wa
		d1[k+1] += x1 * wb
		d2[k] += x2 * wa
		d2[k+1] += x2 * wb
		d3[k] += x3 * wa
		d3[k+1] += x3 * wb
	}
	for ; k < len(w); k++ {
		wk := w[k]
		d0[k] += x0 * wk
		d1[k] += x1 * wk
		d2[k] += x2 * wk
		d3[k] += x3 * wk
	}
}

// gather4 accumulates four consecutive stride-spaced source rows into one
// destination row: dst[k] += Σ_b x_b·src[b·stride+k] — one store and four
// multiply-adds per element. The loop is unrolled two elements deep so two
// independent multiply-add trees are in flight at once.
func gather4(dst []float64, src []float64, stride int, x0, x1, x2, x3 float64) {
	s0 := src[0*stride : 0*stride+len(dst)]
	s1 := src[1*stride : 1*stride+len(dst)]
	s2 := src[2*stride : 2*stride+len(dst)]
	s3 := src[3*stride : 3*stride+len(dst)]
	k := 0
	for ; k+2 <= len(dst); k += 2 {
		a := x0*s0[k] + x1*s1[k]
		b := x0*s0[k+1] + x1*s1[k+1]
		a += x2*s2[k] + x3*s3[k]
		b += x2*s2[k+1] + x3*s3[k+1]
		dst[k] += a
		dst[k+1] += b
	}
	for ; k < len(dst); k++ {
		dst[k] += x0*s0[k] + x1*s1[k] + x2*s2[k] + x3*s3[k]
	}
}

// updateMomentum applies v = mom·v − scale·g; w += v and zeroes g, two
// elements per iteration to keep two independent chains in flight.
func updateMomentum(w, v, g []float64, mom, scale float64) {
	v = v[:len(w)]
	g = g[:len(w)]
	i := 0
	for ; i+2 <= len(w); i += 2 {
		nva := mom*v[i] - scale*g[i]
		nvb := mom*v[i+1] - scale*g[i+1]
		v[i] = nva
		v[i+1] = nvb
		w[i] += nva
		w[i+1] += nvb
		g[i] = 0
		g[i+1] = 0
	}
	for ; i < len(w); i++ {
		nv := mom*v[i] - scale*g[i]
		v[i] = nv
		w[i] += nv
		g[i] = 0
	}
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
		row := f.w1[i*f.cfg.Hidden : (i+1)*f.cfg.Hidden]
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
	hidden := make([]float64, f.cfg.Hidden)
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
