// Package classify implements Seagull's Feature Extraction module: per-server
// features (lifespan, load statistics) and the classification of servers into
// the taxonomy of Section 3.2 — short-lived vs long-lived (Definition 3),
// stable (Definition 4), daily pattern (Definition 5), weekly pattern
// (Definition 6) and servers without any pattern.
//
// The classification drives model choice (Section 5.2) and reproduces the
// population breakdown of Figure 3.
//
// Concurrency: Categorize and the feature helpers are pure; a Scratch is
// single-goroutine state — parallel sweeps allocate one per worker (see
// parallel.ForEachScratch). Equivalence: CategorizeScratch is pinned
// bit-identical to Categorize (scratch_test.go); buffer reuse is never
// allowed to change a verdict.
package classify

import (
	"errors"
	"fmt"

	"seagull/internal/metrics"
	"seagull/internal/timeseries"
)

// LongLivedDays is the lifespan threshold of Definition 3: servers that
// existed more than three weeks are long-lived.
const LongLivedDays = 21

// Category is a leaf of the server taxonomy in Figure 3.
type Category int

const (
	// ShortLived servers existed for at most three weeks (Definition 3) and
	// are excluded from further consideration.
	ShortLived Category = iota
	// Stable long-lived servers are accurately predicted by their average
	// load (Definition 4).
	Stable
	// DailyPattern long-lived servers repeat the previous day's load
	// (Definition 5).
	DailyPattern
	// WeeklyPattern long-lived servers repeat the previous equivalent day's
	// load without following a daily pattern (Definition 6).
	WeeklyPattern
	// NoPattern long-lived servers are neither stable nor follow a daily or
	// weekly pattern; they tend to be unpredictable.
	NoPattern
)

// String returns the category name used in experiment output.
func (c Category) String() string {
	switch c {
	case ShortLived:
		return "short-lived"
	case Stable:
		return "stable"
	case DailyPattern:
		return "daily-pattern"
	case WeeklyPattern:
		return "weekly-pattern"
	case NoPattern:
		return "no-pattern"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Scratch carries the reusable buffer of one classification worker: the
// constant prediction series the Definition 4 stability test compares
// against. Classification sweeps (fig3 runs four regions of servers) thread
// one Scratch per pool worker via parallel.ForEachScratch so the buffer is
// allocated once per worker instead of once per server. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	pred []float64
}

// buf returns the scratch buffer resized to n observations.
func (sc *Scratch) buf(n int) []float64 {
	if cap(sc.pred) < n {
		sc.pred = make([]float64, n)
	}
	return sc.pred[:n]
}

// IsStable (Definition 4) reports whether load is accurately predicted by a
// constant series at its own average, together with the bucket ratio.
func IsStable(load timeseries.Series, cfg metrics.Config) (bool, float64, error) {
	return IsStableScratch(load, cfg, &Scratch{})
}

// IsStableScratch is IsStable over a worker's scratch buffer: the constant
// prediction reuses sc's storage instead of cloning the load series. The
// verdict is bit-identical to IsStable — the comparison only reads values.
func IsStableScratch(load timeseries.Series, cfg metrics.Config, sc *Scratch) (bool, float64, error) {
	avg := load.Mean()
	vals := sc.buf(load.Len())
	for i := range vals {
		vals[i] = avg
	}
	pred := timeseries.New(load.Start, load.Interval, vals)
	ok, ratio, err := metrics.Accurate(load, pred, cfg)
	if err != nil {
		return false, 0, err
	}
	return ok, ratio, nil
}

// HasDailyPattern (Definition 5) reports whether every day of load is
// accurately predicted by the previous day. Requires at least two whole
// days. Days are compared through zero-copy views of the load series.
func HasDailyPattern(load timeseries.Series, cfg metrics.Config) (bool, error) {
	ppd := load.PointsPerDay()
	n := load.NumDays()
	if n < 2 {
		return false, nil
	}
	for d := 1; d < n; d++ {
		cur, err1 := load.View(d*ppd, (d+1)*ppd)
		prev, err2 := load.View((d-1)*ppd, d*ppd)
		if err1 != nil || err2 != nil {
			return false, errors.Join(err1, err2)
		}
		ok, _, err := metrics.Accurate(cur, prev, cfg)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// HasWeeklyPattern (Definition 6) reports whether every day of load is
// accurately predicted by the previous equivalent day of the week. Requires
// at least eight whole days. Note that Definition 6 additionally demands the
// absence of a daily pattern; Categorize enforces that ordering.
func HasWeeklyPattern(load timeseries.Series, cfg metrics.Config) (bool, error) {
	ppd := load.PointsPerDay()
	n := load.NumDays()
	if n < 8 {
		return false, nil
	}
	for d := 7; d < n; d++ {
		cur, err1 := load.View(d*ppd, (d+1)*ppd)
		prev, err2 := load.View((d-7)*ppd, (d-6)*ppd)
		if err1 != nil || err2 != nil {
			return false, errors.Join(err1, err2)
		}
		ok, _, err := metrics.Accurate(cur, prev, cfg)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Categorize classifies a server from its load history and lifespan in days,
// applying Definitions 3–6 in the paper's order: lifespan gate first, then
// stability, then daily before weekly.
func Categorize(load timeseries.Series, lifespanDays int, cfg metrics.Config) (Category, error) {
	return CategorizeScratch(load, lifespanDays, cfg, &Scratch{})
}

// CategorizeScratch is Categorize over a worker's scratch buffer; results
// are bit-identical to Categorize.
func CategorizeScratch(load timeseries.Series, lifespanDays int, cfg metrics.Config, sc *Scratch) (Category, error) {
	if lifespanDays <= LongLivedDays {
		return ShortLived, nil
	}
	stable, _, err := IsStableScratch(load, cfg, sc)
	if err != nil {
		return NoPattern, err
	}
	if stable {
		return Stable, nil
	}
	daily, err := HasDailyPattern(load, cfg)
	if err != nil {
		return NoPattern, err
	}
	if daily {
		return DailyPattern, nil
	}
	weekly, err := HasWeeklyPattern(load, cfg)
	if err != nil {
		return NoPattern, err
	}
	if weekly {
		return WeeklyPattern, nil
	}
	return NoPattern, nil
}

// Summary is the population breakdown of Figure 3.
type Summary struct {
	Total  int
	Counts map[Category]int
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{Counts: make(map[Category]int)}
}

// Add folds one categorized server into the summary.
func (s *Summary) Add(c Category) {
	s.Total++
	s.Counts[c]++
}

// Pct returns the share of category c in the population.
func (s *Summary) Pct(c Category) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Counts[c]) / float64(s.Total)
}

// PctLongLived returns the share of servers that survived beyond three weeks.
func (s *Summary) PctLongLived() float64 {
	return 1 - s.Pct(ShortLived)
}

// PctPredictableExpected returns the share of servers whose load is either
// stable or conforms to a pattern — the population the paper expects to be
// predictable (53.7% in Figure 3).
func (s *Summary) PctPredictableExpected() float64 {
	return s.Pct(Stable) + s.Pct(DailyPattern) + s.Pct(WeeklyPattern)
}

// String renders the Figure 3 style breakdown.
func (s *Summary) String() string {
	return fmt.Sprintf(
		"total=%d short-lived=%.1f%% stable=%.1f%% daily=%.2f%% weekly=%.2f%% no-pattern=%.1f%%",
		s.Total, 100*s.Pct(ShortLived), 100*s.Pct(Stable),
		100*s.Pct(DailyPattern), 100*s.Pct(WeeklyPattern), 100*s.Pct(NoPattern))
}
