package forecast

import (
	"math"
	"testing"
)

// The additive trainer now iterates on the precomputed Gram matrix
// (grad = (AᵀAβ − Aᵀy)/n) instead of scanning the n×p design twice per
// iteration. The two forms are algebraically identical; this test keeps the
// seed implementation as a reference and bounds the floating-point drift.

// refAdditiveGD is the seed gradient-descent loop: two passes over the
// design per iteration.
func refAdditiveGD(design, y []float64, n, p, iterations int, lr, ridge float64) []float64 {
	beta := make([]float64, p)
	grad := make([]float64, p)
	pred := make([]float64, n)
	for it := 0; it < iterations; it++ {
		for t := 0; t < n; t++ {
			row := design[t*p : (t+1)*p]
			s := 0.0
			for j, b := range beta {
				s += b * row[j]
			}
			pred[t] = s
		}
		for j := range grad {
			grad[j] = 0
		}
		for t := 0; t < n; t++ {
			e := pred[t] - y[t]
			row := design[t*p : (t+1)*p]
			for j := range grad {
				grad[j] += e * row[j]
			}
		}
		inv := 1 / float64(n)
		for j := range beta {
			g := grad[j] * inv
			if j > 0 {
				g += ridge * beta[j] * inv
			}
			beta[j] -= lr * g
		}
	}
	return beta
}

func TestAdditiveGramTrainerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		hist := equivSeries(seed, 14)
		cfg := AdditiveConfig{Seed: seed, Iterations: 300, Samples: 50}
		m := NewAdditive(cfg)
		if err := m.Train(hist); err != nil {
			t.Fatal(err)
		}

		// Rebuild the exact design Train fitted (the trained model exposes the
		// preamble products: nTrain, ppd, cpTimes, featureDim).
		p := m.featureDim()
		n := m.nTrain
		design := make([]float64, n*p)
		for tt := 0; tt < n; tt++ {
			m.features(design[tt*p:(tt+1)*p], tt)
		}
		h, err := prepare(hist, 2)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumDays() > additiveTrainDays {
			h, err = h.Slice(h.Len()-additiveTrainDays*h.PointsPerDay(), h.Len())
			if err != nil {
				t.Fatal(err)
			}
		}
		if h.Len() != n {
			t.Fatalf("preamble mismatch: %d points, trained on %d", h.Len(), n)
		}
		y := make([]float64, n)
		for i, v := range h.Values {
			y[i] = v / 100
		}
		want := refAdditiveGD(design, y, n, p, m.cfg.Iterations, additiveLearningRate, additiveRidge)

		if len(m.beta) != len(want) {
			t.Fatalf("beta length %d != %d", len(m.beta), len(want))
		}
		for j := range want {
			if math.Abs(m.beta[j]-want[j]) > 1e-6 {
				t.Fatalf("seed %d: beta[%d] = %v, reference %v (Δ=%g)",
					seed, j, m.beta[j], want[j], m.beta[j]-want[j])
			}
		}
	}
}
