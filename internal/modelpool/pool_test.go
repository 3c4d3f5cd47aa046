package modelpool

import (
	"fmt"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

// What the serving layer relies on — version keys, its idle bound,
// invalidation on promote and rollback, and warm forecasts equal to fresh
// ones — is tested through a Service's pool in internal/serving. The tests
// here need the pool's internals or no service at all.

var poolTarget = registry.Target{Scenario: "backup", Region: "westus"}

func TestPoolCheckoutReturnReuse(t *testing.T) {
	p := New(Config{}, DefaultMaxIdle)
	m1, hit, err := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
	if err != nil || hit {
		t.Fatalf("first checkout: hit=%v err=%v", hit, err)
	}
	p.Return(poolTarget, 1, m1)
	m2, hit, err := p.Checkout(poolTarget, 1, forecast.NamePersistentPrevDay)
	if err != nil || !hit {
		t.Fatalf("second checkout: hit=%v err=%v", hit, err)
	}
	if m1 != m2 {
		t.Error("warm checkout must hand back the returned instance")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if _, _, err := p.Checkout(poolTarget, 1, "no-such-model"); err == nil {
		t.Error("unknown model should fail checkout")
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := New(Config{}, DefaultMaxIdle)
	slot := func(i int) registry.Target {
		return registry.Target{Scenario: "backup", Region: fmt.Sprintf("region-%d", i)}
	}
	for i := 0; i <= maxEntries; i++ {
		m, _, _ := p.Checkout(slot(i), 1, forecast.NamePersistentPrevDay)
		p.Return(slot(i), 1, m)
	}
	st := p.Stats()
	if st.Entries != maxEntries || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want %d entries / 1 eviction", st, maxEntries)
	}
	// The first slot was least recently used and must be cold again.
	if _, hit, _ := p.Checkout(slot(0), 1, forecast.NamePersistentPrevDay); hit {
		t.Error("evicted slot must miss")
	}
	if _, hit, _ := p.Checkout(slot(maxEntries), 1, forecast.NamePersistentPrevDay); !hit {
		t.Error("recently used slot must stay warm")
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

// panicOnceModel trains normally except for one call that panics mid-train,
// simulating corruption of the retained state.
type panicOnceModel struct {
	forecast.Model
	calls   int
	panicAt int
}

func (m *panicOnceModel) Train(h timeseries.Series) error {
	m.calls++
	if m.calls == m.panicAt {
		panic("mid-train corruption")
	}
	return m.Model.Train(h)
}

func (m *panicOnceModel) DeterministicInference() bool { return true }

// TestTrainMemoInvalidatedByPanickedTrain: a Train that panics (recovered by
// the batch path's safeCall) must leave the instance untrained, so a later
// request with the previously memoized history retrains instead of serving
// a forecast from half-mutated state.
func TestTrainMemoInvalidatedByPanickedTrain(t *testing.T) {
	inner, err := forecast.New(forecast.NamePersistentPrevDay, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := newInstance(&panicOnceModel{Model: inner, panicAt: 2})
	if !inst.memoOK {
		t.Fatal("wrapper must advertise deterministic inference")
	}
	h1 := warmHistory(1, 7)
	if _, err := inst.TrainOn(h1); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the second Train to panic")
			}
		}()
		_, _ = inst.TrainOn(warmHistory(2, 7))
	}()
	skipped, err := inst.TrainOn(h1)
	if err != nil {
		t.Fatal(err)
	}
	if skipped {
		t.Fatal("memo must not survive a panicked Train")
	}
}
