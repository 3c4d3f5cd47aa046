package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {95, 9.55}, {100, 10},
	} {
		if got := percentile(sorted, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	vals := []float64{9, 1, 5}
	if got := median(vals); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if vals[0] != 9 || vals[1] != 1 || vals[2] != 5 {
		t.Errorf("median reordered its input: %v", vals)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %g, want 3", got)
	}
}

// One stalled sub-window must move the reported throughput far less than it
// moves ops/window: that is the reason for the median of sub-window rates.
func TestSubWindowRatesMedianShrugsOffAStall(t *testing.T) {
	const window = int64(10e9) // ten one-second sub-windows
	var starts, ends []int64
	var ops []int
	for sub := 0; sub < 10; sub++ {
		n := 100
		if sub == 4 {
			n = 10 // the stall
		}
		for i := 0; i < n; i++ {
			at := int64(sub)*1e9 + int64(i)*1e6
			starts, ends = append(starts, at), append(ends, at+1e6)
			ops = append(ops, 2)
		}
	}
	rates := subWindowRates(starts, ends, ops, window, 10)
	if len(rates) != 10 || !near(rates[0], 200) || !near(rates[4], 20) {
		t.Fatalf("rates = %v, want 200 op/s everywhere but 20 in the stalled sub-window", rates)
	}
	if got := median(rates); !near(got, 200) {
		t.Errorf("median sub-window rate = %g, want 200", got)
	}
	if got := mean(rates); !near(got, 182) {
		t.Errorf("mean sub-window rate = %g, want 182 (the stall shows in the mean)", got)
	}
}

func TestSubWindowRatesSplitACallAcrossTheBoundary(t *testing.T) {
	// One 16-op call from 0.75 s to 1.25 s of a 2 s window: half its ops
	// belong to each one-second sub-window.
	rates := subWindowRates([]int64{750e6}, []int64{1250e6}, []int{16}, 2e9, 2)
	if !near(rates[0], 8) || !near(rates[1], 8) {
		t.Errorf("rates = %v, want 8 op/s on each side", rates)
	}
	// A call in flight at the deadline: only the part inside the window counts.
	rates = subWindowRates([]int64{1500e6}, []int64{2500e6}, []int{10}, 2e9, 2)
	if !near(rates[0], 0) || !near(rates[1], 5) {
		t.Errorf("rates = %v, want 0 and 5: half of the late call lies past the window", rates)
	}
	// A call too quick to have a duration is credited where it fell.
	rates = subWindowRates([]int64{1200e6}, []int64{1200e6}, []int{3}, 2e9, 2)
	if !near(rates[0], 0) || !near(rates[1], 3) {
		t.Errorf("rates = %v, want the 3 ops in the second sub-window", rates)
	}
}

func TestCVPct(t *testing.T) {
	if got := cvPct([]float64{5, 5, 5}); got != 0 {
		t.Errorf("cv of a constant = %g, want 0", got)
	}
	// mean 10, sample sd sqrt(((−2)²+0+2²)/2) = 2 → 20 %
	if got := cvPct([]float64{8, 10, 12}); !near(got, 20) {
		t.Errorf("cv = %g, want 20", got)
	}
}
