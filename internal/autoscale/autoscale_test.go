package autoscale

import (
	"math"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func mkSeries(days int, f func(day, slot int) float64) timeseries.Series {
	const ppd = 96 // 15-minute granularity
	vals := make([]float64, days*ppd)
	for d := 0; d < days; d++ {
		for s := 0; s < ppd; s++ {
			vals[d*ppd+s] = f(d, s)
		}
	}
	return timeseries.New(t0, 15*time.Minute, vals)
}

func TestIsStableFlat(t *testing.T) {
	var c Classifier
	s := mkSeries(5, func(d, sl int) float64 { return 20 + 0.5*float64(sl%2) })
	ok, err := c.IsStable(s)
	if err != nil || !ok {
		t.Errorf("flat database: stable=%v err=%v", ok, err)
	}
}

func TestIsStableRejectsSeasonal(t *testing.T) {
	var c Classifier
	s := mkSeries(5, func(d, sl int) float64 {
		return 20 + 15*math.Sin(2*math.Pi*float64(sl)/96)
	})
	ok, err := c.IsStable(s)
	if err != nil || ok {
		t.Errorf("seasonal database: stable=%v err=%v", ok, err)
	}
}

func TestIsStableUsesLastThreeDays(t *testing.T) {
	var c Classifier
	// Volatile early history, flat final three days.
	s := mkSeries(6, func(d, sl int) float64 {
		if d < 3 {
			return float64(20 + 30*(sl%2))
		}
		return 25
	})
	ok, err := c.IsStable(s)
	if err != nil || !ok {
		t.Errorf("recently stabilized database: stable=%v err=%v", ok, err)
	}
}

func TestIsStableNeedsThreeDays(t *testing.T) {
	var c Classifier
	s := mkSeries(2, func(d, sl int) float64 { return 10 })
	if _, err := c.IsStable(s); err == nil {
		t.Error("two days should error")
	}
}

func TestCustomThreshold(t *testing.T) {
	c := Classifier{Threshold: 100}
	s := mkSeries(3, func(d, sl int) float64 { return float64(50 * (sl % 2)) })
	ok, err := c.IsStable(s)
	if err != nil || !ok {
		t.Errorf("loose threshold should accept: %v %v", ok, err)
	}
}

// The Appendix A.1 statistic: ~19.36% of SQL databases are stable.
func TestClassifySQLFleetRecoversPaperShare(t *testing.T) {
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: 1500, Days: 28, Seed: 9})
	var c Classifier
	stable, total, err := c.ClassifySQLFleet(dbs)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(stable) / float64(total)
	if math.Abs(got-0.1936) > 0.04 {
		t.Errorf("stable share = %.4f, want ≈ 0.1936", got)
	}
	// Classification should recover the construction labels closely.
	agree := 0
	for _, db := range dbs {
		ok, err := c.IsStable(db.Load)
		if err != nil {
			t.Fatal(err)
		}
		if ok == db.StableByConstruction {
			agree++
		}
	}
	if rate := float64(agree) / float64(total); rate < 0.95 {
		t.Errorf("construction agreement = %.3f, want ≥ 0.95", rate)
	}
}

func TestEvaluateModelPersistentForecast(t *testing.T) {
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: 40, Days: 9, Seed: 4})
	ev, err := EvaluateModel(forecast.NamePersistentPrevDay, dbs, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Databases != 40 {
		t.Errorf("evaluated %d of 40", ev.Databases)
	}
	if ev.MeanNRMSE <= 0 || ev.MeanMASE <= 0 {
		t.Errorf("metrics: NRMSE=%v MASE=%v", ev.MeanNRMSE, ev.MeanMASE)
	}
	// Persistent forecast on mostly-unstable SQL data should still beat
	// predicting the mean by a wide margin on stable databases, keeping the
	// fleet mean NRMSE within sane bounds.
	if ev.MeanNRMSE > 3 {
		t.Errorf("NRMSE = %v, implausibly bad", ev.MeanNRMSE)
	}
}

func TestEvaluateModelSkipsShortHistories(t *testing.T) {
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: 5, Days: 4, Seed: 4})
	if _, err := EvaluateModel(forecast.NamePersistentPrevDay, dbs, EvalConfig{}); err == nil {
		t.Error("population with too-short histories should error (none evaluated)")
	}
}

func TestEvaluateModelUnknown(t *testing.T) {
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: 3, Days: 9, Seed: 4})
	if _, err := EvaluateModel("bogus", dbs, EvalConfig{}); err == nil {
		t.Error("unknown model should error")
	}
}

func TestCompareModels(t *testing.T) {
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: 12, Days: 9, Seed: 6})
	evs, err := CompareModels([]string{
		forecast.NamePersistentPrevDay,
		forecast.NameSSA,
	}, dbs, EvalConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("evals = %d", len(evs))
	}
	for _, ev := range evs {
		if ev.Databases == 0 {
			t.Errorf("%s evaluated nothing", ev.Model)
		}
	}
}
