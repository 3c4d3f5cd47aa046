package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by linear
// interpolation between closest ranks — the method of Python's
// statistics.quantiles(method="inclusive") and numpy's default, so a reader
// can recompute it from the raw samples. sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of vals without modifying it.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// mean returns the arithmetic mean (0 for no samples).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// subWindowRates cuts [0, window) into n equal sub-windows and returns the
// rate (ops per second) of each. A call's ops are spread evenly over the time
// the call took, so a call that straddles a boundary counts partly on each
// side: crediting it whole to the sub-window it ended in would quantise the
// rates of a workload with few, large calls (a 16-op batch every 50 ms) in
// steps of several percent. Whatever part of a call lies past the window is
// not counted. One stalled sub-window moves the median of the rates far less
// than it moves ops/window, which is why throughput is reported as that
// median.
func subWindowRates(startNs, endNs []int64, ops []int, windowNs int64, n int) []float64 {
	counts := make([]float64, n)
	sub := float64(windowNs) / float64(n)
	for i, e := range endNs {
		s := startNs[i]
		if e <= s { // instantaneous: credit the sub-window it fell in
			k := min(max(int(float64(s)/sub), 0), n-1)
			counts[k] += float64(ops[i])
			continue
		}
		perNs := float64(ops[i]) / float64(e-s)
		first := max(int(float64(s)/sub), 0)
		for k := first; k < n; k++ {
			lo, hi := max(float64(s), float64(k)*sub), min(float64(e), float64(k+1)*sub)
			if hi <= lo {
				break
			}
			counts[k] += perNs * (hi - lo)
		}
	}
	for i := range counts {
		counts[i] /= sub / 1e9
	}
	return counts
}

// cvPct is the coefficient of variation of vals in percent.
func cvPct(vals []float64) float64 {
	m := mean(vals)
	if m == 0 || len(vals) < 2 {
		return 0
	}
	ss := 0.0
	for _, v := range vals {
		ss += (v - m) * (v - m)
	}
	return 100 * math.Sqrt(ss/float64(len(vals)-1)) / m
}
