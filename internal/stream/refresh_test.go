package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/forecast"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
)

// refreshFixture wires an ingestor + store + registry with one deployed
// model and one stored prediction whose backup day is `days` in from the
// epoch, with full live telemetry before it.
func refreshFixture(t *testing.T, days int) (*Ingestor, *cosmos.DB, *registry.Registry, *pipeline.PredictionDoc) {
	t.Helper()
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	g := newIngestor(testConfig(8064), 4)
	reg := registry.New(nil)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "test")

	day := testEpoch.Add(time.Duration(days) * 24 * time.Hour)
	doc := flatDoc("srv", "r", 1, day, 20)
	storePrediction(t, db, "r", doc)
	// Live history: a daily sine-ish pattern for `days` whole days.
	for i := 0; i < days*288; i++ {
		v := 30 + 20*math.Sin(2*math.Pi*float64(i%288)/288)
		g.Append("srv", testEpoch.Add(time.Duration(i)*5*time.Minute), v)
	}
	return g, db, reg, doc
}

// newPool returns a warm model pool bound to reg until t ends.
func newPool(t *testing.T, reg *registry.Registry) *modelpool.Pool {
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	t.Cleanup(pool.Bind(reg))
	return pool
}

func TestRefreshServer(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})
	if err := r.RefreshServer(context.Background(), "r", "srv", 1); err != nil {
		t.Fatal(err)
	}

	var got pipeline.PredictionDoc
	if err := db.Collection("predictions").Get("r", "srv/week-0001", &got); err != nil {
		t.Fatal(err)
	}
	if got.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", got.Refreshes)
	}
	// pf-prev-day forecasts the previous live day; the flat stored values
	// must have been replaced.
	want := 30 + 20*math.Sin(2*math.Pi*float64(6*288%288)/288)
	if got.Values[0] != want {
		t.Fatalf("refreshed value[0] = %v, want the live previous-day value %v", got.Values[0], want)
	}
	if got.Model != forecast.NamePersistentPrevDay {
		t.Fatalf("model = %q", got.Model)
	}
	if got.LLStart < 0 || got.LLAvg == 20 {
		t.Fatalf("LL window not recomputed: start=%d avg=%v", got.LLStart, got.LLAvg)
	}
	st := r.Stats()
	if st.Refreshed != 1 || st.Failed != 0 || st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRefreshServerErrors(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})
	ctx := context.Background()

	if err := r.RefreshServer(ctx, "r", "ghost", 1); !errors.Is(err, ErrNoPrediction) {
		t.Fatalf("missing doc: %v", err)
	}
	// A server with a stored doc but no live telemetry: skipped.
	storePrediction(t, db, "r", flatDoc("cold", "r", 1, testEpoch.Add(7*24*time.Hour), 20))
	if err := r.RefreshServer(ctx, "r", "cold", 1); !errors.Is(err, ErrNoTelemetry) {
		t.Fatalf("cold server: %v", err)
	}
	// No active deployment for the region.
	if err := r.RefreshServer(ctx, "nowhere", "srv", 1); err == nil {
		t.Fatal("no deployment should fail")
	}
	st := r.Stats()
	if st.Skipped != 1 || st.Failed != 2 {
		t.Fatalf("stats = %+v, want 1 skipped / 2 failed", st)
	}
}

// TestRefreshTraceRecordsWarmCheckout: the second refresh of a server takes
// its model warm from the pool, and the refresh trace's checkout span says so.
func TestRefreshTraceRecordsWarmCheckout(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	tracer := obs.NewTracer(obs.TracerConfig{})
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{Tracer: tracer})
	for i := 0; i < 2; i++ {
		if err := r.RefreshServer(context.Background(), "r", "srv", 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range tracer.StageStats() {
		if st.Stage == obs.StageCheckout.String() {
			if st.Count != 2 || st.Hits < 1 {
				t.Fatalf("checkout stage = %+v, want 2 spans with at least 1 warm hit", st)
			}
			return
		}
	}
	t.Fatal("the refresh traces recorded no checkout span")
}

func TestRefreshInsufficientHistory(t *testing.T) {
	// Only two whole days of live history before the predicted day: below
	// the three-day floor the batch pipeline enforces.
	g, db, reg, _ := refreshFixture(t, 7)
	storePrediction(t, db, "r", flatDoc("young", "r", 1, testEpoch.Add(7*24*time.Hour), 20))
	for i := 5 * 288; i < 7*288; i++ {
		g.Append("young", testEpoch.Add(time.Duration(i)*5*time.Minute), 25)
	}
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})
	if err := r.RefreshServer(context.Background(), "r", "young", 1); !errors.Is(err, ErrInsufficientHistory) {
		t.Fatalf("young server: %v", err)
	}
}

func TestRefreshQueue(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})

	if q, err := r.Enqueue("r", "srv", 1); err != nil || !q {
		t.Fatalf("first enqueue = (%v, %v)", q, err)
	}
	// Duplicate coalesces, does not consume a second slot.
	if q, err := r.Enqueue("r", "srv", 1); err != nil || q {
		t.Fatalf("duplicate enqueue = (%v, %v), want coalesce", q, err)
	}
	// Fill the queue with document-less servers.
	for i := 1; i < refreshQueueSize; i++ {
		if q, err := r.Enqueue("r", fmt.Sprintf("other-%d", i), 1); err != nil || !q {
			t.Fatalf("enqueue %d = (%v, %v)", i, q, err)
		}
	}
	if q, err := r.Enqueue("r", "third", 1); !errors.Is(err, ErrQueueFull) || q {
		t.Fatalf("overflow = (%v, %v), want ErrQueueFull", q, err)
	}
	st := r.Stats()
	if st.Queued != refreshQueueSize || st.Coalesced != 1 || st.Dropped != 1 || st.Pending != refreshQueueSize {
		t.Fatalf("stats = %+v", st)
	}

	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Pending != 0 || st.Refreshed != 1 || st.Failed != refreshQueueSize-1 {
		// The fillers have no stored doc → failed; "srv" refreshes.
		t.Fatalf("after drain: %+v", st)
	}

	// After draining, the same job can queue again.
	if q, err := r.Enqueue("r", "srv", 1); err != nil || !q {
		t.Fatalf("re-enqueue = (%v, %v)", q, err)
	}
	if r.Stats().Pending != 1 {
		t.Fatal("re-enqueue after drain failed")
	}
}

func TestRefreshRun(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	if _, err := r.Enqueue("r", "srv", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Refreshed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	if r.Stats().Refreshed != 1 {
		t.Fatal("background worker never refreshed the queued server")
	}
}

// TestRefreshWeek refreshes a week's stored servers through the queue: those
// with live history are republished, the one without is skipped.
func TestRefreshWeek(t *testing.T) {
	g, db, reg, _ := refreshFixture(t, 7)
	// A second fully-covered server and a telemetry-less one.
	day := testEpoch.Add(7 * 24 * time.Hour)
	storePrediction(t, db, "r", flatDoc("srv2", "r", 1, day, 20))
	for i := 0; i < 7*288; i++ {
		g.Append("srv2", testEpoch.Add(time.Duration(i)*5*time.Minute), 42)
	}
	storePrediction(t, db, "r", flatDoc("cold", "r", 1, day, 20))

	r := NewRefresher(g, db, reg, newPool(t, reg), RefreshConfig{})
	for _, id := range []string{"srv", "srv2", "cold"} {
		if _, err := r.Enqueue("r", id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Refreshed != 2 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want 2 refreshed (cold one skipped)", st)
	}
	var got pipeline.PredictionDoc
	if err := db.Collection("predictions").Get("r", "srv2/week-0001", &got); err != nil {
		t.Fatal(err)
	}
	if got.Values[0] != 42 || got.Refreshes != 1 {
		t.Fatalf("srv2 refreshed doc = v0 %v refreshes %d", got.Values[0], got.Refreshes)
	}
}
