package classify

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"seagull/internal/metrics"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

// mkDays builds a series from per-day slot functions at 5-minute granularity.
func mkDays(days int, f func(day, slot int) float64) timeseries.Series {
	const ppd = 288
	vals := make([]float64, days*ppd)
	for d := 0; d < days; d++ {
		for s := 0; s < ppd; s++ {
			vals[d*ppd+s] = f(d, s)
		}
	}
	return timeseries.New(t0, 5*time.Minute, vals)
}

func TestIsStableFlatSeries(t *testing.T) {
	cfg := metrics.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	s := mkDays(28, func(d, sl int) float64 { return 30 + rng.NormFloat64()*1.5 })
	ok, ratio, err := IsStable(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || ratio < 0.95 {
		t.Errorf("flat series: stable=%v ratio=%v", ok, ratio)
	}
}

func TestIsStableRejectsBimodal(t *testing.T) {
	cfg := metrics.DefaultConfig()
	// Half the day at 10, half at 60: the average (35) predicts neither.
	s := mkDays(28, func(d, sl int) float64 {
		if sl < 144 {
			return 10
		}
		return 60
	})
	ok, _, err := IsStable(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("bimodal series must not be stable")
	}
}

func TestHasDailyPattern(t *testing.T) {
	cfg := metrics.DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	// Strong business-hours bump repeated every day.
	s := mkDays(28, func(d, sl int) float64 {
		v := 10.0
		if sl >= 100 && sl < 200 {
			v = 70
		}
		return v + rng.NormFloat64()
	})
	ok, err := HasDailyPattern(s, cfg)
	if err != nil || !ok {
		t.Errorf("daily series: ok=%v err=%v", ok, err)
	}
	// The same series is NOT stable.
	stable, _, _ := IsStable(s, cfg)
	if stable {
		t.Error("daily series must not be stable")
	}
}

func TestHasDailyPatternRejectsShift(t *testing.T) {
	cfg := metrics.DefaultConfig()
	// Bump shifts by 4 hours every day.
	s := mkDays(10, func(d, sl int) float64 {
		start := (100 + d*48) % 288
		if sl >= start && sl < start+60 {
			return 70
		}
		return 10
	})
	ok, err := HasDailyPattern(s, cfg)
	if err != nil || ok {
		t.Errorf("shifting bump should not be a daily pattern (ok=%v err=%v)", ok, err)
	}
}

func TestHasDailyPatternNeedsTwoDays(t *testing.T) {
	cfg := metrics.DefaultConfig()
	s := mkDays(1, func(d, sl int) float64 { return 10 })
	ok, err := HasDailyPattern(s, cfg)
	if err != nil || ok {
		t.Error("single day cannot establish a daily pattern")
	}
}

func TestHasWeeklyPattern(t *testing.T) {
	cfg := metrics.DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	// Weekday-dependent amplitude, repeated exactly week over week.
	amp := [7]float64{5, 70, 40, 70, 40, 70, 20}
	s := mkDays(28, func(d, sl int) float64 {
		v := 8.0
		if sl >= 96 && sl < 192 {
			v += amp[d%7]
		}
		return v + rng.NormFloat64()
	})
	weekly, err := HasWeeklyPattern(s, cfg)
	if err != nil || !weekly {
		t.Errorf("weekly series: weekly=%v err=%v", weekly, err)
	}
	daily, _ := HasDailyPattern(s, cfg)
	if daily {
		t.Error("weekly series with alternating amplitudes must not be daily")
	}
}

func TestHasWeeklyPatternNeedsEightDays(t *testing.T) {
	cfg := metrics.DefaultConfig()
	s := mkDays(7, func(d, sl int) float64 { return 10 })
	ok, err := HasWeeklyPattern(s, cfg)
	if err != nil || ok {
		t.Error("seven days cannot establish a weekly pattern")
	}
}

func TestCategorizeShortLived(t *testing.T) {
	cfg := metrics.DefaultConfig()
	s := mkDays(5, func(d, sl int) float64 { return 10 })
	cat, err := Categorize(s, 5, cfg)
	if err != nil || cat != ShortLived {
		t.Errorf("cat=%v err=%v", cat, err)
	}
	// Exactly 21 days is still short-lived ("more than three weeks" is long).
	cat, _ = Categorize(s, 21, cfg)
	if cat != ShortLived {
		t.Errorf("21 days should be short-lived, got %v", cat)
	}
}

func TestCategorizeOrdering(t *testing.T) {
	cfg := metrics.DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	// A stable series trivially passes daily and weekly checks too; the
	// classification must call it Stable (paper's ordering).
	s := mkDays(28, func(d, sl int) float64 { return 25 + rng.NormFloat64() })
	cat, err := Categorize(s, 28, cfg)
	if err != nil || cat != Stable {
		t.Errorf("cat=%v err=%v, want Stable", cat, err)
	}
}

func TestCategorizeNoPattern(t *testing.T) {
	cfg := metrics.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	// Random bursts, different every day.
	s := mkDays(28, func(d, sl int) float64 {
		base := 10 + float64((d*37)%30)
		if (sl+d*61)%97 < 20 {
			base += 50
		}
		return base + rng.NormFloat64()
	})
	cat, err := Categorize(s, 28, cfg)
	if err != nil || cat != NoPattern {
		t.Errorf("cat=%v err=%v, want NoPattern", cat, err)
	}
}

func TestSummary(t *testing.T) {
	s := NewSummary()
	s.Add(Stable)
	s.Add(Stable)
	s.Add(ShortLived)
	s.Add(NoPattern)
	if s.Total != 4 || s.Counts[Stable] != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.Pct(Stable) != 0.5 || s.PctLongLived() != 0.75 {
		t.Errorf("pcts: stable=%v long=%v", s.Pct(Stable), s.PctLongLived())
	}
	if s.PctPredictableExpected() != 0.5 {
		t.Errorf("predictable expected = %v", s.PctPredictableExpected())
	}
	if s.String() == "" {
		t.Error("String should render")
	}
	if (&Summary{Counts: map[Category]int{}}).Pct(Stable) != 0 {
		t.Error("empty summary Pct should be 0")
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		ShortLived: "short-lived", Stable: "stable", DailyPattern: "daily-pattern",
		WeeklyPattern: "weekly-pattern", NoPattern: "no-pattern", Category(99): "category(99)",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// Calibration test: classifying a generated fleet reproduces the Figure 3
// population shares. This is the linchpin connecting the simulator to the
// paper's evaluation.
func TestFigure3Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test is slow")
	}
	cfg := metrics.DefaultConfig()
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "calib", Servers: 1200, Weeks: 4, Seed: 42,
	})
	sum := NewSummary()
	for _, srv := range fleet.Servers {
		cat, err := Categorize(srv.Load(), srv.LifespanDays(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", srv.ID, err)
		}
		sum.Add(cat)
	}
	t.Logf("classification: %s", sum)

	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
		}
	}
	check("short-lived", sum.Pct(ShortLived), 0.421, 0.05)
	check("stable", sum.Pct(Stable), 0.535, 0.06)
	check("no-pattern", sum.Pct(NoPattern), 0.042, 0.03)
	check("long-lived", sum.PctLongLived(), 0.58, 0.05)
	check("predictable-expected", sum.PctPredictableExpected(), 0.537, 0.06)
	// Daily and weekly are rare (0.2% combined) but must exist in a fleet of
	// this size only probabilistically; just assert they are not dominant.
	if sum.Pct(DailyPattern)+sum.Pct(WeeklyPattern) > 0.02 {
		t.Errorf("daily+weekly = %.3f, should be tiny", sum.Pct(DailyPattern)+sum.Pct(WeeklyPattern))
	}
}

// The generator's class labels and the classifier's categories must agree
// for long-lived servers when each class is generated in isolation.
func TestClassRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := metrics.DefaultConfig()
	cases := []struct {
		mix  simulate.Mix
		want Category
	}{
		{simulate.Mix{Stable: 1}, Stable},
		{simulate.Mix{Daily: 1}, DailyPattern},
		{simulate.Mix{Weekly: 1}, WeeklyPattern},
		{simulate.Mix{NoPattern: 1}, NoPattern},
	}
	for _, c := range cases {
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: "rec", Servers: 60, Weeks: 4, Seed: 11, Mix: c.mix,
		})
		hit := 0
		for _, srv := range fleet.Servers {
			cat, err := Categorize(srv.Load(), srv.LifespanDays(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cat == c.want {
				hit++
			}
		}
		rate := float64(hit) / float64(len(fleet.Servers))
		if rate < 0.8 {
			t.Errorf("class %v recovered at %.2f (want ≥ 0.8)", c.want, rate)
		}
	}
}
