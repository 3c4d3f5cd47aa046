package serving

import (
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/modelpool"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

// These tests drive the warm pool a Service builds: NewService sizes its idle
// bound and binds it to the service's registry, and every request's answer
// rests on a warm instance forecasting exactly what a fresh model would.

var poolTarget = registry.Target{Scenario: "backup", Region: "westus"}

// servicePool returns the warm pool of a new service over a new registry.
func servicePool(t *testing.T, cfg ServiceConfig) (*modelpool.Pool, *registry.Registry) {
	reg := registry.New(nil)
	svc := NewService(reg, nil, cfg)
	t.Cleanup(svc.Close)
	return svc.Pool(), reg
}

func TestPoolVersionIsPartOfTheKey(t *testing.T) {
	p, _ := servicePool(t, ServiceConfig{})
	m1, _, _ := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
	p.Return(poolTarget, 1, m1)
	_, hit, _ := p.Checkout(poolTarget, 2, forecast.NamePersistentPrevDay)
	if hit {
		t.Error("a new version must miss the old version's warm instances")
	}
}

// TestPoolMaxIdleBound: the service's pool keeps max(DefaultMaxIdle,
// Workers) idle instances per slot and drops returns beyond that.
func TestPoolMaxIdleBound(t *testing.T) {
	for _, workers := range []int{1, 2 * modelpool.DefaultMaxIdle} {
		p, _ := servicePool(t, ServiceConfig{Workers: workers})
		want := max(modelpool.DefaultMaxIdle, workers)
		insts := make([]*modelpool.Instance, want+1)
		for i := range insts {
			insts[i], _, _ = p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
		}
		for _, inst := range insts {
			p.Return(poolTarget, 1, inst) // the last one is beyond the idle bound: dropped
		}
		if st := p.Stats(); st.Idle != want {
			t.Errorf("workers %d: idle = %d, want %d", workers, st.Idle, want)
		}
	}
}

func TestPoolInvalidateOnRegistryChange(t *testing.T) {
	p, reg := servicePool(t, ServiceConfig{}) // NewService binds the pool to reg

	v1 := reg.Deploy(poolTarget, forecast.NamePersistentPrevDay, "")
	m, _, _ := p.Checkout(poolTarget, v1, forecast.NamePersistentPrevDay)
	p.Return(poolTarget, v1, m)
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("idle = %d, want 1", st.Idle)
	}

	// Promote: the watcher must drop the warm slot.
	reg.Deploy(poolTarget, forecast.NameSSA, "")
	st := p.Stats()
	if st.Idle != 0 || st.Invalidations == 0 {
		t.Fatalf("after promote: stats = %+v, want 0 idle and >0 invalidations", st)
	}
	if _, hit, _ := p.Checkout(poolTarget, v1, forecast.NamePersistentPrevDay); hit {
		t.Error("stale version must be cold after a promote")
	}
}

func TestPoolInvalidateOnRollback(t *testing.T) {
	p, reg := servicePool(t, ServiceConfig{}) // NewService binds the pool to reg

	v1 := reg.Deploy(poolTarget, forecast.NamePersistentPrevDay, "")
	if err := reg.RecordAccuracy(poolTarget, v1, 0.95); err != nil {
		t.Fatal(err)
	}
	v2 := reg.Deploy(poolTarget, forecast.NameSSA, "")
	m, _, _ := p.Checkout(poolTarget, v2, forecast.NameSSA)
	p.Return(poolTarget, v2, m)

	if _, err := reg.Fallback(poolTarget, 0.9); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("after rollback: idle = %d, want 0", st.Idle)
	}
}

// TestReturnAfterInvalidateDropsInstance: an instance checked out before an
// invalidation must be discarded on Return, not resurrect a stale slot.
func TestReturnAfterInvalidateDropsInstance(t *testing.T) {
	p, _ := servicePool(t, ServiceConfig{})
	inst, _, err := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
	if err != nil {
		t.Fatal(err)
	}
	p.Invalidate(poolTarget)
	p.Return(poolTarget, 1, inst)
	if st := p.Stats(); st.Entries != 0 || st.Idle != 0 {
		t.Fatalf("stale return resurrected a slot: %+v", st)
	}
	if _, hit, _ := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay); hit {
		t.Error("invalidated target must be cold")
	}
	// A fresh checkout/return cycle after the invalidation pools normally.
	inst2, _, _ := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
	p.Return(poolTarget, 1, inst2)
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("post-invalidation return should pool: %+v", st)
	}
}

// warmHistory builds a deterministic daily-pattern week.
func warmHistory(seed int64, days int) timeseries.Series {
	vals := make([]float64, days*288)
	for i := range vals {
		base := 10.0
		if i%288 >= 96 && i%288 < 192 {
			base = 55
		}
		vals[i] = base + float64((int(seed)+i*31)%9)
	}
	return timeseries.New(time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

// TestWarmPoolForecastEquivalence is the acceptance gate for pool reuse: a
// model checked out warm (already trained on some other server's history)
// and retrained must forecast bit-identically to a fresh instance — for the
// stateful models SSA, FFNN and the additive trainer, not just persistents.
func TestWarmPoolForecastEquivalence(t *testing.T) {
	for _, name := range []string{forecast.NameSSA, forecast.NameFFNN, forecast.NameAdditive, forecast.NamePersistentPrevDay} {
		t.Run(name, func(t *testing.T) {
			p, _ := servicePool(t, ServiceConfig{})
			warm, _, err := p.Checkout(poolTarget, 1, name)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the instance on an unrelated server, as batch serving does.
			if _, err := warm.TrainOn(warmHistory(3, 9)); err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Model.Forecast(288); err != nil {
				t.Fatal(err)
			}
			p.Return(poolTarget, 1, warm)

			again, hit, err := p.Checkout(poolTarget, 1, name)
			if err != nil || !hit {
				t.Fatalf("hit=%v err=%v", hit, err)
			}
			target := warmHistory(8, 7)
			skipped, err := again.TrainOn(target)
			if err != nil {
				t.Fatal(err)
			}
			if skipped {
				t.Fatal("a different history must not skip the retrain")
			}
			warmPred, err := again.Model.Forecast(288)
			if err != nil {
				t.Fatal(err)
			}

			fresh, err := forecast.New(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			freshPred, err := forecast.PredictDay(fresh, target)
			if err != nil {
				t.Fatal(err)
			}
			if warmPred.Len() != freshPred.Len() {
				t.Fatalf("len %d vs %d", warmPred.Len(), freshPred.Len())
			}
			for i := range warmPred.Values {
				if warmPred.Values[i] != freshPred.Values[i] {
					t.Fatalf("forecast diverges at %d: warm %v fresh %v",
						i, warmPred.Values[i], freshPred.Values[i])
				}
			}
		})
	}
}

// TestTrainMemoSkipsIdenticalHistory pins the retrain-skip contract for a
// deterministic-inference model: identical history skips, and the skipped
// forecast is bit-identical to a fresh model's.
func TestTrainMemoSkipsIdenticalHistory(t *testing.T) {
	p, _ := servicePool(t, ServiceConfig{})
	inst, _, err := p.Checkout(poolTarget, 1, forecast.NameSSA)
	if err != nil {
		t.Fatal(err)
	}
	hist := warmHistory(8, 7)
	if skipped, err := inst.TrainOn(hist); err != nil || skipped {
		t.Fatalf("first train: skipped=%v err=%v", skipped, err)
	}
	if _, err := inst.Model.Forecast(288); err != nil {
		t.Fatal(err)
	}
	// Same bits in a different backing array must skip — the memo compares
	// values, never slice identity; and client-supplied bytes are verified
	// in full, so nothing short of bit-identity can ever skip.
	skipped, err := inst.TrainOn(hist.Clone())
	if err != nil || !skipped {
		t.Fatalf("identical retrain: skipped=%v err=%v", skipped, err)
	}
	memoPred, err := inst.Model.Forecast(288)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := forecast.New(forecast.NameSSA, 0)
	freshPred, err := forecast.PredictDay(fresh, hist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range memoPred.Values {
		if memoPred.Values[i] != freshPred.Values[i] {
			t.Fatalf("memoized forecast diverges at %d", i)
		}
	}

	// One changed observation must invalidate the memo.
	changed := hist.Clone()
	changed.Values[100] += 0.5
	if skipped, err := inst.TrainOn(changed); err != nil || skipped {
		t.Fatalf("changed history: skipped=%v err=%v", skipped, err)
	}
}

// TestAdditiveNeverSkipsTrain: the additive model consumes RNG at inference,
// so the memo must never skip its retrain — each request re-seeds in Train,
// keeping every response equivalent to a fresh model's.
func TestAdditiveNeverSkipsTrain(t *testing.T) {
	p, _ := servicePool(t, ServiceConfig{})
	inst, _, err := p.Checkout(poolTarget, 1, forecast.NameAdditive)
	if err != nil {
		t.Fatal(err)
	}
	hist := warmHistory(8, 7)
	for round := 0; round < 2; round++ {
		skipped, err := inst.TrainOn(hist)
		if err != nil {
			t.Fatal(err)
		}
		if skipped {
			t.Fatal("additive retrain must never be skipped")
		}
		got, err := inst.Model.Forecast(288)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := forecast.New(forecast.NameAdditive, 0)
		want, err := forecast.PredictDay(fresh, hist)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("round %d: additive forecast diverges at %d", round, i)
			}
		}
	}
}
