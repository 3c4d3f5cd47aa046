package stream_test

// The acceptance pin of the stream subsystem: the incremental refresh path
// (ingest → snapshot → warm-pool retrain → republish) must be a pure
// scheduling optimization over the weekly batch pipeline, never an accuracy
// trade. For identical telemetry, a refreshed PredictionDoc carries a
// forecast bit-identical to what pipeline.RunWeek stored; and when only part
// of a fleet drifts, only the drifted servers are retrained.

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/lake"
	"seagull/internal/modelpool"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simulate"
	"seagull/internal/stream"
)

const eqRegion = "eq"

// eqFixture runs a real two-week pipeline over a synthetic fleet and
// returns everything the stream layer needs to replay it.
type eqFixture struct {
	store *lake.Store
	db    *cosmos.DB
	reg   *registry.Registry
	docs  map[string]*pipeline.PredictionDoc // by server id
	start time.Time
}

func newEqFixture(t *testing.T, model string) *eqFixture {
	t.Helper()
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(nil)
	fleet := simulate.GenerateFleet(simulate.Config{Region: eqRegion, Servers: 16, Weeks: 2, Seed: 3})
	if _, err := extract.ExtractAll(store, fleet); err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(store, db, reg, nil)
	if _, err := p.RunWeek(context.Background(), pipeline.Config{
		Region: eqRegion, Week: 1, ModelName: model,
	}); err != nil {
		t.Fatal(err)
	}
	f := &eqFixture{store: store, db: db, reg: reg, start: fleet.Config.Start}
	f.docs = f.storedDocs(t)
	if len(f.docs) == 0 {
		t.Fatal("pipeline stored no predictions")
	}
	return f
}

// storedDocs reads every week-1 PredictionDoc.
func (f *eqFixture) storedDocs(t *testing.T) map[string]*pipeline.PredictionDoc {
	t.Helper()
	out := map[string]*pipeline.PredictionDoc{}
	err := f.db.Collection("predictions").Query(eqRegion, func(id string, body json.RawMessage) error {
		if !strings.HasSuffix(id, "/week-0001") {
			return nil
		}
		var doc pipeline.PredictionDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return err
		}
		out[doc.ServerID] = &doc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// feed streams the same weekly extracts the pipeline ingested into an
// ingestor, optionally perturbing one server's values inside [from, to).
func (f *eqFixture) feed(t *testing.T, ing *stream.Ingestor, perturbID string, from, to time.Time, delta float64) {
	t.Helper()
	for w := 0; w <= 1; w++ {
		loads, err := extract.Ingest(f.store, eqRegion, w, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range loads {
			vals := sl.Load.Values
			if sl.ServerID == perturbID {
				vals = append([]float64(nil), vals...)
				for i := range vals {
					at := sl.Load.TimeAt(i)
					if !at.Before(from) && at.Before(to) {
						vals[i] += delta
					}
				}
			}
			if _, err := ing.AppendSeries(sl.ServerID, sl.Load.Start, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// zeroTime marks "no perturbation window" in feed calls.
var zeroTime time.Time

// newWarmPool builds a warm model pool bound to the fixture's registry.
func newWarmPool(t *testing.T, f *eqFixture) *modelpool.Pool {
	t.Helper()
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	t.Cleanup(pool.Bind(f.reg))
	return pool
}

// warmRefresher builds a refresher over a warm model pool.
func warmRefresher(t *testing.T, f *eqFixture, ing *stream.Ingestor) *stream.Refresher {
	t.Helper()
	return stream.NewRefresher(ing, f.db, f.reg, newWarmPool(t, f), stream.RefreshConfig{})
}

// TestRefreshEquivalentToRunWeek: refreshing an undrifted fleet from live
// telemetry reproduces the weekly run's forecasts bit for bit — across the
// production persistent forecast, the SSA model (deterministic retrain with
// retained scratch) and the additive model (inference consumes the model
// RNG, which Train re-seeds).
func TestRefreshEquivalentToRunWeek(t *testing.T) {
	for _, model := range []string{
		forecast.NamePersistentPrevDay,
		forecast.NameSSA,
		forecast.NameAdditive,
	} {
		t.Run(model, func(t *testing.T) {
			f := newEqFixture(t, model)
			ing := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
			f.feed(t, ing, "", time.Time{}, time.Time{}, 0)

			r := warmRefresher(t, f, ing)
			for id := range f.docs {
				if _, err := r.Enqueue(eqRegion, id, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := r.Stats().Refreshed; n != uint64(len(f.docs)) {
				t.Fatalf("refreshed %d servers, want all %d", n, len(f.docs))
			}

			after := f.storedDocs(t)
			for id, want := range f.docs {
				got := after[id]
				if got == nil {
					t.Fatalf("server %s lost its prediction", id)
				}
				if got.Refreshes != 1 {
					t.Errorf("%s: refreshes = %d, want 1", id, got.Refreshes)
				}
				if got.Model != want.Model || got.LLStart != want.LLStart {
					t.Errorf("%s: model/LL = %s/%d, want %s/%d", id, got.Model, got.LLStart, want.Model, want.LLStart)
				}
				if math.Float64bits(got.LLAvg) != math.Float64bits(want.LLAvg) {
					t.Errorf("%s: LLAvg = %v, want %v", id, got.LLAvg, want.LLAvg)
				}
				if len(got.Values) != len(want.Values) {
					t.Fatalf("%s: forecast length %d vs %d", id, len(got.Values), len(want.Values))
				}
				for i := range want.Values {
					if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
						t.Fatalf("%s: refreshed forecast differs from the weekly run at %d: %v vs %v",
							id, i, got.Values[i], want.Values[i])
					}
				}
			}
		})
	}
}

// TestDriftTriggersPartialRefresh: when one server's live backup day runs
// hot, the sweep flags exactly that server beyond the naturally drifted
// baseline, and the refresher retrains only the drifted servers (pinned via
// the refresh counters and the per-doc Refreshes field).
func TestDriftTriggersPartialRefresh(t *testing.T) {
	f := newEqFixture(t, forecast.NamePersistentPrevDay)
	ctx := context.Background()

	// Baseline: live telemetry identical to what the pipeline evaluated.
	clean := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, clean, "", time.Time{}, time.Time{}, 0)
	baseRep, err := stream.NewDriftDetector(clean, f.db).Sweep(ctx, eqRegion, 1)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]bool{}
	for _, sd := range baseRep.DriftedServers {
		baseline[sd.ServerID] = true
	}

	// Pick a server the clean sweep judged fine and run its backup day 40
	// points hot in a second ingestor.
	var target *pipeline.PredictionDoc
	for _, doc := range f.docs {
		if !baseline[doc.ServerID] {
			target = doc
			break
		}
	}
	if target == nil {
		t.Fatal("every server drifted naturally; fixture too noisy to test partial drift")
	}
	hot := stream.NewIngestor(stream.Config{Epoch: f.start, Slots: 8064})
	f.feed(t, hot, target.ServerID, target.BackupDay, target.BackupDay.Add(24*time.Hour), 40)

	rep, err := stream.NewDriftDetector(hot, f.db).Sweep(ctx, eqRegion, 1)
	if err != nil {
		t.Fatal(err)
	}
	drifted := map[string]bool{}
	for _, sd := range rep.DriftedServers {
		drifted[sd.ServerID] = true
	}
	if !drifted[target.ServerID] {
		t.Fatalf("perturbed server %s not flagged; drifted = %v", target.ServerID, drifted)
	}
	if len(drifted) != len(baseline)+1 {
		t.Fatalf("drift sweep flagged %d servers, want baseline %d + the perturbed one",
			len(drifted), len(baseline))
	}
	for id := range baseline {
		if !drifted[id] {
			t.Errorf("baseline-drifted %s missing from the perturbed sweep", id)
		}
	}

	// Queue and drain: only the drifted servers retrain.
	r := warmRefresher(t, f, hot)
	if queued, dropped := r.EnqueueReport(rep); queued != len(drifted) || dropped != 0 {
		t.Fatalf("queued %d (dropped %d), want %d queued", queued, dropped, len(drifted))
	}
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Refreshed != uint64(len(drifted)) || st.Failed != 0 {
		t.Fatalf("refresh stats = %+v, want exactly %d refreshed", st, len(drifted))
	}

	after := f.storedDocs(t)
	for id, doc := range after {
		wantRefreshes := 0
		if drifted[id] {
			wantRefreshes = 1
		}
		if doc.Refreshes != wantRefreshes {
			t.Errorf("%s: refreshes = %d, want %d (drifted=%v)", id, doc.Refreshes, wantRefreshes, drifted[id])
		}
	}
	// The fleet-cost claim in one line: refresh work scales with the
	// drifted share, not the fleet size.
	if len(drifted) >= len(f.docs) {
		t.Fatalf("partial-drift fixture degenerated: %d of %d drifted", len(drifted), len(f.docs))
	}
}
