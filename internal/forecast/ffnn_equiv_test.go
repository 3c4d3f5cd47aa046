package forecast

import (
	"math"
	"math/rand"
	"testing"

	"seagull/internal/timeseries"
)

// Equivalence tests for the FFNN trainer: it must reproduce the historical
// per-sample SGD loop bit for bit, and a retrained (worker-arena) model must
// match a fresh one exactly.

// refFFNNTrain is a frozen copy of the historical per-sample training loop
// (pre-buffer-reuse), kept as the bit-identity reference. It returns the
// trained weights for history at the given config.
func refFFNNTrain(t *testing.T, cfg FFNNConfig, history timeseries.Series) (w1, b1, w2, b2, context []float64) {
	t.Helper()
	cfg = cfg.withDefaults()
	h, err := prepare(history, ffnnContextDays+1)
	if err != nil {
		t.Fatal(err)
	}
	ppd := h.PointsPerDay()
	if h.NumDays() > ffnnTrainDays {
		h, err = h.Slice(h.Len()-ffnnTrainDays*ppd, h.Len())
		if err != nil {
			t.Fatal(err)
		}
	}
	coarse, _, err := resampleTo(h, ffnnGranularity)
	if err != nil {
		t.Fatal(err)
	}
	coarse = coarse.FillGaps()
	cppd := coarse.PointsPerDay()
	inDim := ffnnContextDays * cppd
	outDim := cppd

	x := make([]float64, coarse.Len())
	for i, v := range coarse.Values {
		x[i] = v / 100
	}
	nSamples := len(x) - inDim - outDim + 1
	if nSamples < 1 {
		t.Fatal("reference: series too short")
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ea9011))
	refInit := func(n, fanIn int) []float64 {
		w := make([]float64, n)
		scale := math.Sqrt(2 / float64(fanIn))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		return w
	}
	w1 = refInit(inDim*ffnnHidden, inDim)
	b1 = make([]float64, ffnnHidden)
	w2 = refInit(ffnnHidden*outDim, ffnnHidden)
	b2 = make([]float64, outDim)

	vw1 := make([]float64, len(w1))
	vb1 := make([]float64, len(b1))
	vw2 := make([]float64, len(w2))
	vb2 := make([]float64, len(b2))
	hidden := make([]float64, ffnnHidden)
	dHidden := make([]float64, ffnnHidden)
	out := make([]float64, outDim)
	dOut := make([]float64, outDim)

	forward := func(in []float64) {
		for k := range hidden {
			hidden[k] = b1[k]
		}
		for i, xi := range in {
			if xi == 0 {
				continue
			}
			row := w1[i*ffnnHidden : (i+1)*ffnnHidden]
			for k, w := range row {
				hidden[k] += xi * w
			}
		}
		for k := range hidden {
			if hidden[k] < 0 {
				hidden[k] = 0
			}
		}
		copy(out, b2)
		for k, hk := range hidden {
			if hk == 0 {
				continue
			}
			row := w2[k*outDim : (k+1)*outDim]
			for j, w := range row {
				out[j] += hk * w
			}
		}
	}

	order := rng.Perm(nSamples)
	lr := ffnnLearningRate
	mom := ffnnMomentum
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		step := lr / (1 + 0.1*float64(epoch))
		for _, s := range order {
			in := x[s : s+inDim]
			target := x[s+inDim : s+inDim+outDim]
			forward(in)
			for j := range out {
				dOut[j] = (out[j] - target[j]) / float64(outDim)
			}
			for k := range hidden {
				if hidden[k] <= 0 {
					dHidden[k] = 0
					continue
				}
				hk := hidden[k]
				g := 0.0
				for j, dj := range dOut {
					g += dj * w2[k*outDim+j]
					v := mom*vw2[k*outDim+j] - step*dj*hk
					vw2[k*outDim+j] = v
					w2[k*outDim+j] += v
				}
				dHidden[k] = g
			}
			for j := range dOut {
				vb2[j] = mom*vb2[j] - step*dOut[j]
				b2[j] += vb2[j]
			}
			for i, xi := range in {
				if xi == 0 {
					continue
				}
				for k, dh := range dHidden {
					if dh == 0 {
						continue
					}
					v := mom*vw1[i*ffnnHidden+k] - step*dh*xi
					vw1[i*ffnnHidden+k] = v
					w1[i*ffnnHidden+k] += v
				}
			}
			for k := range dHidden {
				vb1[k] = mom*vb1[k] - step*dHidden[k]
				b1[k] += vb1[k]
			}
		}
	}
	context = append([]float64(nil), x[len(x)-inDim:]...)
	return w1, b1, w2, b2, context
}

func equalFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at %d: %v != %v", name, i, got[i], want[i])
		}
	}
}

// TestFFNNBatch1BitIdenticalToOldLoop pins the trainer to the historical
// loop exactly — weights and context must be equal bit for
// bit, not just close.
func TestFFNNBatch1BitIdenticalToOldLoop(t *testing.T) {
	for _, cfg := range []FFNNConfig{
		{Seed: 1},
		{Seed: 7, Epochs: 5},
	} {
		hist := mkDays(7, dailyShape(cfg.Seed+100))
		w1, b1, w2, b2, context := refFFNNTrain(t, cfg, hist)

		m := NewFFNN(cfg)
		if err := m.Train(hist); err != nil {
			t.Fatal(err)
		}
		equalFloats(t, "w1", m.w1, w1)
		equalFloats(t, "b1", m.b1, b1)
		equalFloats(t, "w2", m.w2, w2)
		equalFloats(t, "b2", m.b2, b2)
		equalFloats(t, "context", m.context, context)
	}
}

// TestFFNNRetrainMatchesFresh pins the worker-arena contract: retraining a
// used model must equal training a fresh one.
func TestFFNNRetrainMatchesFresh(t *testing.T) {
	cfg := FFNNConfig{Seed: 5}
	reused := NewFFNN(cfg)
	if _, err := PredictDay(reused, mkDays(9, dailyShape(31))); err != nil {
		t.Fatal(err)
	}
	hist := mkDays(7, dailyShape(32))
	predReused, err := PredictDay(reused, hist)
	if err != nil {
		t.Fatal(err)
	}
	predFresh, err := PredictDay(NewFFNN(cfg), hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range predFresh.Values {
		if predReused.Values[i] != predFresh.Values[i] {
			t.Fatalf("retrained model diverges from fresh at %d", i)
		}
	}
}
