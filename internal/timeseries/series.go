// Package timeseries provides the fixed-interval time-series substrate that
// every other Seagull component builds on: load series at a uniform sampling
// interval, day slicing, resampling, gap repair and window statistics.
//
// The paper's telemetry is "average customer CPU load percentage per five
// minutes" per server (Section 2.2); the SQL auto-scale scenario uses a
// 15-minute granularity (Appendix A). Both are represented here as a Series
// with an explicit Interval.
//
// Concurrency and aliasing contract: a Series is a value wrapping a shared
// backing array. View/Slice return zero-copy windows — read-only by
// convention; mutating helpers (FillGaps, Clone, resampling) copy first.
// Concurrent readers of the same backing array are safe; any writer
// requires external synchronization. Missing observations are NaN
// (timeseries.Missing) everywhere in the system.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Common errors returned by series operations.
var (
	ErrEmptySeries      = errors.New("timeseries: empty series")
	ErrLengthMismatch   = errors.New("timeseries: series length mismatch")
	ErrIntervalMismatch = errors.New("timeseries: interval mismatch")
	ErrBadInterval      = errors.New("timeseries: interval must be positive")
	ErrOutOfRange       = errors.New("timeseries: window out of range")
)

// Missing marks an absent observation inside a Series. Validation flags runs
// of Missing; gap repair replaces them by interpolation.
var Missing = math.NaN()

// IsMissing reports whether v marks an absent observation.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Series is a uniformly sampled time series: Values[i] is the observation for
// the interval starting at Start.Add(time.Duration(i)*Interval).
//
// A Series is a value-ish type: methods never mutate the receiver unless
// documented otherwise, and returned series share no backing storage with the
// receiver.
type Series struct {
	Start    time.Time
	Interval time.Duration
	Values   []float64
}

// New returns a Series beginning at start with the given sampling interval
// and values. The values slice is used directly (not copied).
func New(start time.Time, interval time.Duration, values []float64) Series {
	return Series{Start: start, Interval: interval, Values: values}
}

// Len returns the number of observations.
func (s Series) Len() int { return len(s.Values) }

// End returns the time just after the last interval, i.e. Start + Len*Interval.
func (s Series) End() time.Time {
	return s.Start.Add(time.Duration(s.Len()) * s.Interval)
}

// TimeAt returns the start time of observation i.
func (s Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Interval)
}

// IndexOf returns the observation index covering time t and whether t falls
// inside the series' span.
func (s Series) IndexOf(t time.Time) (int, bool) {
	if s.Interval <= 0 || s.Len() == 0 {
		return 0, false
	}
	d := t.Sub(s.Start)
	if d < 0 {
		return 0, false
	}
	i := int(d / s.Interval)
	if i >= s.Len() {
		return 0, false
	}
	return i, true
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return Series{Start: s.Start, Interval: s.Interval, Values: v}
}

// Slice returns the sub-series covering observation indexes [from, to).
// The returned series copies its values.
func (s Series) Slice(from, to int) (Series, error) {
	if from < 0 || to > s.Len() || from > to {
		return Series{}, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, from, to, s.Len())
	}
	v := make([]float64, to-from)
	copy(v, s.Values[from:to])
	return Series{Start: s.TimeAt(from), Interval: s.Interval, Values: v}, nil
}

// View returns the sub-series covering observation indexes [from, to)
// sharing the receiver's backing array — the zero-copy counterpart of Slice
// for read-only consumers. The result must not be mutated (FillGaps, Clone,
// Slice and Resample all copy before writing, so feeding a view into a
// model's Train is safe); use Slice when ownership is needed.
func (s Series) View(from, to int) (Series, error) {
	if from < 0 || to > s.Len() || from > to {
		return Series{}, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, from, to, s.Len())
	}
	return Series{Start: s.TimeAt(from), Interval: s.Interval, Values: s.Values[from:to:to]}, nil
}

// Between returns the sub-series covering [from, to) in time. Both bounds are
// clamped to the series' span.
func (s Series) Between(from, to time.Time) Series {
	if s.Len() == 0 {
		return Series{Start: from, Interval: s.Interval}
	}
	lo := int(from.Sub(s.Start) / s.Interval)
	hi := int(to.Sub(s.Start) / s.Interval)
	if to.Sub(s.Start)%s.Interval != 0 {
		hi++
	}
	lo = max(lo, 0)
	hi = min(hi, s.Len())
	if lo >= hi {
		return Series{Start: from, Interval: s.Interval}
	}
	out, _ := s.Slice(lo, hi)
	return out
}

// Append extends the series in place with more observations.
func (s *Series) Append(values ...float64) { s.Values = append(s.Values, values...) }

// PointsPerDay returns how many observations cover 24 hours.
func (s Series) PointsPerDay() int {
	if s.Interval <= 0 {
		return 0
	}
	return int(24 * time.Hour / s.Interval)
}

// Days splits the series into consecutive whole days (UTC midnight-aligned
// relative to Start). The final partial day, if any, is dropped. Each day
// copies its values.
func (s Series) Days() []Series {
	ppd := s.PointsPerDay()
	if ppd == 0 || s.Len() < ppd {
		return nil
	}
	n := s.Len() / ppd
	days := make([]Series, 0, n)
	for i := 0; i < n; i++ {
		d, _ := s.Slice(i*ppd, (i+1)*ppd)
		days = append(days, d)
	}
	return days
}

// Day returns day i (0-based from Start) of the series.
func (s Series) Day(i int) (Series, error) {
	ppd := s.PointsPerDay()
	if ppd == 0 {
		return Series{}, ErrBadInterval
	}
	return s.Slice(i*ppd, (i+1)*ppd)
}

// NumDays returns the number of whole days the series covers.
func (s Series) NumDays() int {
	ppd := s.PointsPerDay()
	if ppd == 0 {
		return 0
	}
	return s.Len() / ppd
}

// Mean returns the arithmetic mean, skipping missing observations. A series
// of only missing values has mean 0.
func (s Series) Mean() float64 {
	sum, n := 0.0, 0
	for _, v := range s.Values {
		if IsMissing(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Std returns the population standard deviation, skipping missing values.
func (s Series) Std() float64 {
	mean := s.Mean()
	sum, n := 0.0, 0
	for _, v := range s.Values {
		if IsMissing(v) {
			continue
		}
		d := v - mean
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Min returns the smallest non-missing observation and its index, or
// (0, -1) when every observation is missing.
func (s Series) Min() (float64, int) {
	best, idx := math.Inf(1), -1
	for i, v := range s.Values {
		if IsMissing(v) {
			continue
		}
		if v < best {
			best, idx = v, i
		}
	}
	if idx < 0 {
		return 0, -1
	}
	return best, idx
}

// Max returns the largest non-missing observation and its index, or (0, -1)
// when every observation is missing.
func (s Series) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, v := range s.Values {
		if IsMissing(v) {
			continue
		}
		if v > best {
			best, idx = v, i
		}
	}
	if idx < 0 {
		return 0, -1
	}
	return best, idx
}

// MissingCount returns the number of missing observations.
func (s Series) MissingCount() int {
	n := 0
	for _, v := range s.Values {
		if IsMissing(v) {
			n++
		}
	}
	return n
}

// WindowMean returns the mean of the w observations starting at index i,
// skipping missing values. It returns an error when [i, i+w) is out of range.
func (s Series) WindowMean(i, w int) (float64, error) {
	if i < 0 || w <= 0 || i+w > s.Len() {
		return 0, fmt.Errorf("%w: window [%d,%d) of %d", ErrOutOfRange, i, i+w, s.Len())
	}
	sum, n := 0.0, 0
	for _, v := range s.Values[i : i+w] {
		if IsMissing(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// MinWindow returns the start index of the length-w window with the minimal
// mean, scanning every start offset. This is the primitive behind the lowest
// load window (Definition 7 in the paper).
func (s Series) MinWindow(w int) (start int, mean float64, err error) {
	if w <= 0 || w > s.Len() {
		return 0, 0, fmt.Errorf("%w: window %d of %d", ErrOutOfRange, w, s.Len())
	}
	// Incremental sliding sum over non-missing values.
	sum, cnt := 0.0, 0
	for _, v := range s.Values[:w] {
		if !IsMissing(v) {
			sum += v
			cnt++
		}
	}
	bestMean := math.Inf(1)
	if cnt > 0 {
		bestMean = sum / float64(cnt)
	}
	best := 0
	for i := 1; i+w <= s.Len(); i++ {
		out, in := s.Values[i-1], s.Values[i+w-1]
		if !IsMissing(out) {
			sum -= out
			cnt--
		}
		if !IsMissing(in) {
			sum += in
			cnt++
		}
		if cnt == 0 {
			continue
		}
		if m := sum / float64(cnt); m < bestMean {
			bestMean, best = m, i
		}
	}
	if math.IsInf(bestMean, 1) {
		return 0, 0, ErrEmptySeries
	}
	return best, bestMean, nil
}

// Resample converts the series to a coarser interval by averaging whole
// buckets. target must be a positive multiple of s.Interval; the trailing
// partial bucket is dropped.
func (s Series) Resample(target time.Duration) (Series, error) {
	if target <= 0 || s.Interval <= 0 {
		return Series{}, ErrBadInterval
	}
	if target%s.Interval != 0 {
		return Series{}, fmt.Errorf("%w: %v not a multiple of %v", ErrIntervalMismatch, target, s.Interval)
	}
	k := int(target / s.Interval)
	if k == 1 {
		return s.Clone(), nil
	}
	n := s.Len() / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum, cnt := 0.0, 0
		for _, v := range s.Values[i*k : (i+1)*k] {
			if IsMissing(v) {
				continue
			}
			sum += v
			cnt++
		}
		if cnt == 0 {
			out[i] = Missing
		} else {
			out[i] = sum / float64(cnt)
		}
	}
	return Series{Start: s.Start, Interval: target, Values: out}, nil
}

// FillGaps returns a copy with missing observations replaced by linear
// interpolation between the nearest non-missing neighbours; leading/trailing
// gaps are filled with the nearest observed value. A fully-missing series is
// filled with zeros.
func (s Series) FillGaps() Series {
	out := s.Clone()
	n := out.Len()
	prev := -1 // last non-missing index
	for i := 0; i < n; i++ {
		if IsMissing(out.Values[i]) {
			continue
		}
		if prev < 0 && i > 0 {
			// Leading gap: back-fill.
			for j := 0; j < i; j++ {
				out.Values[j] = out.Values[i]
			}
		} else if prev >= 0 && i-prev > 1 {
			// Interior gap: linear interpolation.
			lo, hi := out.Values[prev], out.Values[i]
			span := float64(i - prev)
			for j := prev + 1; j < i; j++ {
				frac := float64(j-prev) / span
				out.Values[j] = lo + (hi-lo)*frac
			}
		}
		prev = i
	}
	if prev < 0 {
		for i := range out.Values {
			out.Values[i] = 0
		}
		return out
	}
	for j := prev + 1; j < n; j++ {
		out.Values[j] = out.Values[prev]
	}
	return out
}

// Add returns the element-wise sum of two equally shaped series.
func Add(a, b Series) (Series, error) {
	if a.Len() != b.Len() {
		return Series{}, ErrLengthMismatch
	}
	out := a.Clone()
	for i := range out.Values {
		out.Values[i] += b.Values[i]
	}
	return out, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the non-missing values using
// linear interpolation between order statistics.
func (s Series) Quantile(q float64) (float64, error) {
	vals := make([]float64, 0, s.Len())
	for _, v := range s.Values {
		if !IsMissing(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, ErrEmptySeries
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("timeseries: quantile %v out of [0,1]", q)
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return vals[lo], nil
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac, nil
}

// String summarizes the series for debugging.
func (s Series) String() string {
	return fmt.Sprintf("Series{start=%s interval=%s n=%d mean=%.2f}",
		s.Start.Format(time.RFC3339), s.Interval, s.Len(), s.Mean())
}
