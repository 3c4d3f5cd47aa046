package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccessors(t *testing.T) {
	s := New(t0, 5*time.Minute, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.TimeAt(2); !got.Equal(t0.Add(10 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
	if got := s.End(); !got.Equal(t0.Add(15 * time.Minute)) {
		t.Errorf("End = %v", got)
	}
}

func TestIndexOf(t *testing.T) {
	s := New(t0, 5*time.Minute, make([]float64, 12))
	cases := []struct {
		t    time.Time
		want int
		ok   bool
	}{
		{t0, 0, true},
		{t0.Add(4 * time.Minute), 0, true},
		{t0.Add(5 * time.Minute), 1, true},
		{t0.Add(59 * time.Minute), 11, true},
		{t0.Add(60 * time.Minute), 0, false},
		{t0.Add(-time.Minute), 0, false},
	}
	for _, c := range cases {
		got, ok := s.IndexOf(c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("IndexOf(%v) = (%d,%v), want (%d,%v)", c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestIndexOfEmptySeries(t *testing.T) {
	var s Series
	if _, ok := s.IndexOf(t0); ok {
		t.Error("IndexOf on empty series should report not found")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, 2, 3})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares backing storage with the original")
	}
}

func TestSlice(t *testing.T) {
	s := New(t0, time.Minute, []float64{0, 1, 2, 3, 4})
	sub, err := s.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Values[0] != 1 || !sub.Start.Equal(t0.Add(time.Minute)) {
		t.Errorf("Slice = %+v", sub)
	}
	sub.Values[0] = 42
	if s.Values[1] != 1 {
		t.Error("Slice shares storage")
	}
	if _, err := s.Slice(-1, 2); err == nil {
		t.Error("negative from should error")
	}
	if _, err := s.Slice(0, 6); err == nil {
		t.Error("to beyond length should error")
	}
	if _, err := s.Slice(3, 2); err == nil {
		t.Error("from>to should error")
	}
}

func TestBetween(t *testing.T) {
	s := New(t0, time.Hour, []float64{0, 1, 2, 3, 4, 5})
	sub := s.Between(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if sub.Len() != 2 || sub.Values[0] != 1 || sub.Values[1] != 2 {
		t.Errorf("Between = %+v", sub.Values)
	}
	// Clamped bounds.
	sub = s.Between(t0.Add(-time.Hour), t0.Add(100*time.Hour))
	if sub.Len() != 6 {
		t.Errorf("clamped Between len = %d", sub.Len())
	}
	// Partial-interval upper bound rounds up.
	sub = s.Between(t0, t0.Add(90*time.Minute))
	if sub.Len() != 2 {
		t.Errorf("partial Between len = %d, want 2", sub.Len())
	}
	// Empty range.
	if sub := s.Between(t0.Add(10*time.Hour), t0.Add(11*time.Hour)); sub.Len() != 0 {
		t.Errorf("out-of-range Between len = %d, want 0", sub.Len())
	}
}

func TestDays(t *testing.T) {
	ppd := 288 // 5-minute granularity
	s := New(t0, 5*time.Minute, make([]float64, ppd*3+10))
	for i := range s.Values {
		s.Values[i] = float64(i / ppd)
	}
	days := s.Days()
	if len(days) != 3 {
		t.Fatalf("Days = %d, want 3 (partial day dropped)", len(days))
	}
	for i, d := range days {
		if d.Len() != ppd {
			t.Errorf("day %d len = %d", i, d.Len())
		}
		if d.Values[0] != float64(i) {
			t.Errorf("day %d starts with %v", i, d.Values[0])
		}
		if !d.Start.Equal(t0.Add(time.Duration(i) * 24 * time.Hour)) {
			t.Errorf("day %d start = %v", i, d.Start)
		}
	}
	if s.NumDays() != 3 {
		t.Errorf("NumDays = %d", s.NumDays())
	}
	d1, err := s.Day(1)
	if err != nil || d1.Values[0] != 1 {
		t.Errorf("Day(1) = %+v, err %v", d1.Values[:1], err)
	}
}

func TestDaysTooShort(t *testing.T) {
	s := New(t0, 5*time.Minute, make([]float64, 100))
	if days := s.Days(); days != nil {
		t.Errorf("Days on sub-day series = %d, want nil", len(days))
	}
}

func TestMeanStdMinMax(t *testing.T) {
	s := New(t0, time.Minute, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(s.Mean(), 5) {
		t.Errorf("Mean = %v", s.Mean())
	}
	if !almostEq(s.Std(), 2) {
		t.Errorf("Std = %v", s.Std())
	}
	mn, i := s.Min()
	if mn != 2 || i != 0 {
		t.Errorf("Min = %v@%d", mn, i)
	}
	mx, j := s.Max()
	if mx != 9 || j != 7 {
		t.Errorf("Max = %v@%d", mx, j)
	}
}

func TestStatsSkipMissing(t *testing.T) {
	s := New(t0, time.Minute, []float64{Missing, 10, Missing, 20})
	if !almostEq(s.Mean(), 15) {
		t.Errorf("Mean with missing = %v", s.Mean())
	}
	if s.MissingCount() != 2 {
		t.Errorf("MissingCount = %d", s.MissingCount())
	}
	mn, i := s.Min()
	if mn != 10 || i != 1 {
		t.Errorf("Min = %v@%d", mn, i)
	}
}

func TestAllMissingStats(t *testing.T) {
	s := New(t0, time.Minute, []float64{Missing, Missing})
	if s.Mean() != 0 || s.Std() != 0 {
		t.Error("all-missing mean/std should be 0")
	}
	if _, i := s.Min(); i != -1 {
		t.Error("all-missing Min should report index -1")
	}
	if _, i := s.Max(); i != -1 {
		t.Error("all-missing Max should report index -1")
	}
}

func TestWindowMean(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, 2, 3, 4, 5})
	m, err := s.WindowMean(1, 3)
	if err != nil || !almostEq(m, 3) {
		t.Errorf("WindowMean = %v, err %v", m, err)
	}
	if _, err := s.WindowMean(3, 3); err == nil {
		t.Error("overflowing window should error")
	}
	if _, err := s.WindowMean(0, 0); err == nil {
		t.Error("zero-width window should error")
	}
}

func TestMinWindow(t *testing.T) {
	// Valley at indices 4..6.
	s := New(t0, time.Minute, []float64{9, 8, 7, 5, 1, 1, 1, 6, 9, 9})
	start, mean, err := s.MinWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 4 || !almostEq(mean, 1) {
		t.Errorf("MinWindow = %d mean %v", start, mean)
	}
	if _, _, err := s.MinWindow(11); err == nil {
		t.Error("window longer than series should error")
	}
	if _, _, err := s.MinWindow(0); err == nil {
		t.Error("zero window should error")
	}
}

func TestMinWindowWithMissing(t *testing.T) {
	s := New(t0, time.Minute, []float64{5, Missing, 5, 1, 1, 5})
	start, mean, err := s.MinWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	if start != 3 || !almostEq(mean, 1) {
		t.Errorf("MinWindow = %d mean %v", start, mean)
	}
}

func TestMinWindowBruteForceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		s := New(t0, time.Minute, vals)
		w := 1 + rng.Intn(n)
		start, mean, err := s.MinWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		bestMean, best := math.Inf(1), -1
		for i := 0; i+w <= n; i++ {
			m, _ := s.WindowMean(i, w)
			if m < bestMean {
				bestMean, best = m, i
			}
		}
		if !almostEq(mean, bestMean) {
			t.Fatalf("trial %d: MinWindow mean %v, brute force %v (start %d vs %d)",
				trial, mean, bestMean, start, best)
		}
	}
}

func TestResample(t *testing.T) {
	s := New(t0, 5*time.Minute, []float64{1, 3, 5, 7, 10, 20})
	r, err := s.Resample(15 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || !almostEq(r.Values[0], 3) || !almostEq(r.Values[1], 37.0/3) {
		t.Errorf("Resample = %+v", r.Values)
	}
	if r.Interval != 15*time.Minute {
		t.Errorf("Resample interval = %v", r.Interval)
	}
	if _, err := s.Resample(7 * time.Minute); err == nil {
		t.Error("non-multiple target should error")
	}
	if _, err := s.Resample(0); err == nil {
		t.Error("zero target should error")
	}
	same, err := s.Resample(5 * time.Minute)
	if err != nil || same.Len() != s.Len() {
		t.Errorf("identity resample failed: %v", err)
	}
}

func TestResampleMissingBuckets(t *testing.T) {
	s := New(t0, time.Minute, []float64{Missing, Missing, 4, 6})
	r, err := s.Resample(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !IsMissing(r.Values[0]) {
		t.Error("fully-missing bucket should stay missing")
	}
	if !almostEq(r.Values[1], 5) {
		t.Errorf("bucket mean = %v", r.Values[1])
	}
}

func TestFillGaps(t *testing.T) {
	s := New(t0, time.Minute, []float64{Missing, 2, Missing, Missing, 8, Missing})
	f := s.FillGaps()
	want := []float64{2, 2, 4, 6, 8, 8}
	for i, w := range want {
		if !almostEq(f.Values[i], w) {
			t.Errorf("FillGaps[%d] = %v, want %v", i, f.Values[i], w)
		}
	}
	// Original untouched.
	if !IsMissing(s.Values[0]) {
		t.Error("FillGaps mutated the receiver")
	}
}

func TestFillGapsAllMissing(t *testing.T) {
	s := New(t0, time.Minute, []float64{Missing, Missing})
	f := s.FillGaps()
	if f.Values[0] != 0 || f.Values[1] != 0 {
		t.Errorf("all-missing FillGaps = %v", f.Values)
	}
}

func TestAdd(t *testing.T) {
	a := New(t0, time.Minute, []float64{1, 2})
	b := New(t0, time.Minute, []float64{10, 20})
	c, err := Add(a, b)
	if err != nil || c.Values[0] != 11 || c.Values[1] != 22 {
		t.Errorf("Add = %+v err %v", c.Values, err)
	}
	if _, err := Add(a, New(t0, time.Minute, []float64{1})); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestQuantile(t *testing.T) {
	s := New(t0, time.Minute, []float64{1, 2, 3, 4})
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		got, err := s.Quantile(c.q)
		if err != nil || !almostEq(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v (err %v)", c.q, got, c.want, err)
		}
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Error("out-of-range q should error")
	}
	empty := New(t0, time.Minute, nil)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty quantile should error")
	}
}

func TestPointsPerDay(t *testing.T) {
	if got := New(t0, 5*time.Minute, nil).PointsPerDay(); got != 288 {
		t.Errorf("5-min PointsPerDay = %d, want 288", got)
	}
	if got := New(t0, 15*time.Minute, nil).PointsPerDay(); got != 96 {
		t.Errorf("15-min PointsPerDay = %d, want 96", got)
	}
	if got := (Series{}).PointsPerDay(); got != 0 {
		t.Errorf("zero-interval PointsPerDay = %d", got)
	}
}

// Property: MinWindow mean is never larger than any window mean.
func TestPropertyMinWindowIsMinimal(t *testing.T) {
	f := func(raw []uint8, wSeed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		s := New(t0, time.Minute, vals)
		w := 1 + int(wSeed)%len(vals)
		_, mean, err := s.MinWindow(w)
		if err != nil {
			return false
		}
		for i := 0; i+w <= s.Len(); i++ {
			m, _ := s.WindowMean(i, w)
			if mean > m+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FillGaps output has no missing values and preserves observed points.
func TestPropertyFillGapsComplete(t *testing.T) {
	f := func(raw []uint8, mask []bool) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(raw[i])
			if i < len(mask) && mask[i] {
				vals[i] = Missing
			}
		}
		s := New(t0, time.Minute, vals)
		filled := s.FillGaps()
		for i, v := range filled.Values {
			if IsMissing(v) {
				return false
			}
			if !IsMissing(s.Values[i]) && !almostEq(v, s.Values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Resample then mean equals original mean when no values are
// missing and length divides evenly.
func TestPropertyResamplePreservesMean(t *testing.T) {
	f := func(raw []uint8) bool {
		n := (len(raw) / 4) * 4
		if n == 0 {
			return true
		}
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(raw[i])
		}
		s := New(t0, time.Minute, vals)
		r, err := s.Resample(4 * time.Minute)
		if err != nil {
			return false
		}
		return almostEq(s.Mean(), r.Mean())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestViewSharesBackingAndMatchesSlice(t *testing.T) {
	s := New(time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, []float64{1, 2, 3, 4, 5, 6})
	v, err := s.View(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := s.Slice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Start.Equal(sl.Start) || v.Len() != sl.Len() {
		t.Fatalf("view %v != slice %v", v, sl)
	}
	for i := range sl.Values {
		if v.Values[i] != sl.Values[i] {
			t.Fatalf("view[%d] = %v, want %v", i, v.Values[i], sl.Values[i])
		}
	}
	// The view shares backing storage with the receiver…
	s.Values[2] = 42
	if v.Values[0] != 42 {
		t.Error("view does not share the receiver's backing array")
	}
	// …while a full-capacity slice expression keeps appends from clobbering
	// the parent.
	v.Append(99)
	if s.Values[5] != 6 {
		t.Errorf("append through view clobbered parent: %v", s.Values)
	}
	if _, err := s.View(4, 2); err == nil {
		t.Error("inverted bounds must error")
	}
	if _, err := s.View(0, 7); err == nil {
		t.Error("out-of-range view must error")
	}
}
