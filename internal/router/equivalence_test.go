package router_test

// The cross-replica equivalence suite — the contract the sharded fleet is
// pinned by. A 4-replica system (each replica owning a consistent-hash shard
// of servers: its own ingest rings, drift detector and namespaced WAL +
// snapshots in the shared lake) fed the same telemetry through the router
// must serve forecasts bit-identical to the single-process system, and a
// replica killed and rebuilt behind a fresh router must lose zero
// acknowledged points.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/simulate"
	"seagull/internal/stream"
)

const (
	testSlot   = 5 * time.Minute
	testWeeks  = 3 // weeks 0-1 pipelined, week 2 streamed live
	testRegion = "westus"
	testModel  = "pf-prev-day"
)

// world is the shared substrate every replica mounts: one lake, one document
// store, one registry — the cloud services of the paper's deployment.
type world struct {
	t     *testing.T
	store *lake.Store
	db    *cosmos.DB
	reg   *registry.Registry
	fleet *simulate.Fleet
	live  []*extract.ServerLoad // week 2, the live telemetry
}

func newWorld(t *testing.T, servers int) *world {
	t.Helper()
	store, err := lake.Open(filepath.Join(t.TempDir(), "lake"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, store: store, db: db, reg: registry.New(nil)}
	w.fleet = simulate.GenerateFleet(simulate.Config{
		Region: testRegion, Servers: servers, Weeks: testWeeks, Interval: testSlot, Seed: 11,
	})
	if _, err := extract.ExtractAll(store, w.fleet); err != nil {
		t.Fatal(err)
	}
	pipe := pipeline.New(store, db, w.reg, nil)
	for wk := 0; wk < testWeeks-1; wk++ {
		if _, err := pipe.RunWeek(context.Background(), pipeline.Config{
			Region: testRegion, Week: wk, ModelName: testModel, Interval: testSlot,
		}); err != nil {
			t.Fatalf("warmup week %d: %v", wk, err)
		}
	}
	w.live, err = extract.Ingest(store, testRegion, testWeeks-1, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replicaStack is one serving replica: its shard's ingest rings, drift
// detector, namespaced durability, and HTTP listener.
type replicaStack struct {
	name string
	ing  *stream.Ingestor
	dur  *stream.Durability
	svc  *serving.Service
	srv  *httptest.Server
}

// newStack mounts one replica (or, with durable=false and name "", the
// single-process baseline) on the world. The returned stack is recovered and
// persisting when durable.
func (w *world) newStack(name string, durable bool) *replicaStack {
	w.t.Helper()
	st := &replicaStack{name: name}
	st.ing = stream.NewIngestor(stream.Config{
		Interval: testSlot,
		Epoch:    w.fleet.Config.Start,
		Slots:    (testWeeks + 1) * int(7*24*time.Hour/testSlot),
	})
	cfg := serving.ServiceConfig{
		Ingestor: st.ing,
		Drift:    stream.NewDriftDetector(st.ing, w.db),
	}
	if durable {
		st.dur = stream.NewDurability(st.ing, w.store, stream.DurabilityConfig{
			Namespace:     name,
			SnapshotEvery: -1, // explicit CommitNow/SnapshotNow only
		})
		if _, err := st.dur.Recover(); err != nil {
			w.t.Fatal(err)
		}
		if err := st.dur.Open(); err != nil {
			w.t.Fatal(err)
		}
		cfg.Durability = st.dur
	}
	st.svc = serving.NewService(w.reg, w.db, cfg)
	st.srv = httptest.NewServer(st.svc.Handler())
	w.t.Cleanup(st.close)
	return st
}

func (st *replicaStack) close() {
	if st.srv != nil {
		st.srv.Close()
		st.srv = nil
	}
	if st.dur != nil {
		_ = st.dur.Close()
		st.dur = nil
	}
	if st.svc != nil {
		st.svc.Close()
		st.svc = nil
	}
}

// newFleet mounts n durable replicas and a router over them.
func (w *world) newFleet(n int) ([]*replicaStack, *router.Router) {
	reps := make([]*replicaStack, n)
	for i := range reps {
		reps[i] = w.newStack("shard-"+string(rune('a'+i)), true)
	}
	return reps, w.newRouter(reps)
}

// newRouter builds a router over reps, as a router process started with
// their names and URLs would be.
func (w *world) newRouter(reps []*replicaStack) *router.Router {
	w.t.Helper()
	cfg := router.Config{Seed: 42}
	for _, rep := range reps {
		cfg.Replicas = append(cfg.Replicas, router.Replica{Name: rep.name, BaseURL: rep.srv.URL})
	}
	rt, err := router.New(cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	return rt
}

// ingestBatch converts a slice of server loads into one ingest request.
func ingestBatch(loads []*extract.ServerLoad) serving.IngestRequest {
	var req serving.IngestRequest
	for _, sl := range loads {
		req.Servers = append(req.Servers, serving.IngestSeries{
			ServerID:    sl.ServerID,
			Start:       sl.Load.Start,
			IntervalMin: int(testSlot / time.Minute),
			Values:      sl.Load.Values,
		})
	}
	return req
}

// predictTargets returns the long-lived servers (short-lived ones may lack a
// full live-history day).
func (w *world) predictTargets() []string {
	var ids []string
	for _, srv := range w.fleet.Servers {
		if !srv.ShortLived {
			ids = append(ids, srv.ID)
		}
	}
	return ids
}

func livePredict(id string) serving.PredictRequestV2 {
	return serving.PredictRequestV2{
		Scenario:     pipeline.Scenario,
		Region:       testRegion,
		ServerID:     id,
		LiveHistory:  true,
		Horizon:      int(24 * time.Hour / testSlot),
		WindowPoints: 12,
	}
}

// TestFourReplicaEquivalence is the headline proof: same telemetry in,
// bit-identical forecasts out, single-process vs 4 replicas behind the
// router.
func TestFourReplicaEquivalence(t *testing.T) {
	w := newWorld(t, 48)
	ctx := context.Background()

	base := w.newStack("", false)
	baseClient := serving.NewClient(base.srv.URL)
	reps, rt := w.newFleet(4)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	routed := serving.NewClient(front.URL)

	req := ingestBatch(w.live)
	baseResp, err := baseClient.Ingest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	routedResp, err := routed.Ingest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if routedResp != baseResp {
		t.Fatalf("ingest tallies diverge: routed %+v vs single-process %+v", routedResp, baseResp)
	}

	// The fleet's rings must partition the baseline's, exactly along the
	// shard map.
	smap := rt.Map()
	total := 0
	for _, rep := range reps {
		ids := rep.ing.Servers()
		total += len(ids)
		if len(ids) == 0 {
			t.Errorf("replica %s owns no servers — balance broken at fleet scale", rep.name)
		}
		for _, id := range ids {
			if owner := smap.Owner(id); owner != rep.name {
				t.Errorf("server %s landed on %s but the map owns it to %s", id, rep.name, owner)
			}
		}
	}
	if want := len(base.ing.Servers()); total != want {
		t.Fatalf("replicas hold %d servers, single process holds %d", total, want)
	}

	// Bit-identical live-history forecasts for every long-lived server.
	for _, id := range w.predictTargets() {
		got, err := routed.PredictV2(ctx, livePredict(id))
		if err != nil {
			t.Fatalf("routed predict %s: %v", id, err)
		}
		want, err := baseClient.PredictV2(ctx, livePredict(id))
		if err != nil {
			t.Fatalf("direct predict %s: %v", id, err)
		}
		if got.Model != want.Model || got.Version != want.Version {
			t.Fatalf("%s: model %s/v%d vs %s/v%d", id, got.Model, got.Version, want.Model, want.Version)
		}
		if got.LLStart != want.LLStart || got.LLAvg != want.LLAvg {
			t.Fatalf("%s: lowest-load window (%d, %g) vs (%d, %g)",
				id, got.LLStart, got.LLAvg, want.LLStart, want.LLAvg)
		}
		if len(got.Forecast.Values) != len(want.Forecast.Values) {
			t.Fatalf("%s: forecast length %d vs %d", id, len(got.Forecast.Values), len(want.Forecast.Values))
		}
		for i := range got.Forecast.Values {
			if got.Forecast.Values[i] != want.Forecast.Values[i] {
				t.Fatalf("%s: forecast[%d] = %v vs %v — not bit-identical",
					id, i, got.Forecast.Values[i], want.Forecast.Values[i])
			}
		}
	}

	// Batch through the router must equal per-item direct predicts too: the
	// split/merge preserves request order across shards.
	items := make([]serving.BatchItem, 0, 8)
	for _, id := range w.predictTargets()[:8] {
		sl := findLoad(t, w.live, id)
		items = append(items, serving.BatchItem{
			ServerID: id,
			History:  serving.FromSeries(sl.Load),
			Horizon:  int(24 * time.Hour / testSlot),
		})
	}
	batch := serving.BatchRequest{Scenario: pipeline.Scenario, Region: testRegion, Servers: items}
	gotB, err := routed.PredictBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := baseClient.PredictBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if gotB.Succeeded != wantB.Succeeded || gotB.Failed != wantB.Failed {
		t.Fatalf("batch tallies: %d/%d vs %d/%d", gotB.Succeeded, gotB.Failed, wantB.Succeeded, wantB.Failed)
	}
	for i := range wantB.Results {
		if gotB.Results[i].ServerID != wantB.Results[i].ServerID {
			t.Fatalf("batch result %d out of request order: %s vs %s",
				i, gotB.Results[i].ServerID, wantB.Results[i].ServerID)
		}
		gv, wv := gotB.Results[i].Forecast, wantB.Results[i].Forecast
		if gv == nil || wv == nil {
			t.Fatalf("batch result %d missing forecast", i)
		}
		for j := range wv.Values {
			if gv.Values[j] != wv.Values[j] {
				t.Fatalf("batch %s forecast[%d] diverges", wantB.Results[i].ServerID, j)
			}
		}
	}

	// Fleet varz aggregates to the single-process totals.
	fv := rt.FleetVarz(ctx)
	if fv.ReadyReplicas != 4 || len(fv.Members) != 4 {
		t.Fatalf("fleet not fully ready: %+v", fv)
	}
	if fv.Fleet.Appended != uint64(baseResp.Accepted) {
		t.Errorf("fleet appended %d, single process accepted %d", fv.Fleet.Appended, baseResp.Accepted)
	}
	if fv.Fleet.Servers != len(base.ing.Servers()) {
		t.Errorf("fleet servers %d, single process %d", fv.Fleet.Servers, len(base.ing.Servers()))
	}
}

func findLoad(t *testing.T, loads []*extract.ServerLoad, id string) *extract.ServerLoad {
	t.Helper()
	for _, sl := range loads {
		if sl.ServerID == id {
			return sl
		}
	}
	t.Fatalf("no live telemetry for %s", id)
	return nil
}

// TestDrainRejoinZeroLoss kills one replica after its points were
// acknowledged (accepted + WAL-committed), rebuilds it from the shared
// lake behind a fresh router, and requires every acknowledged point back —
// and re-sent telemetry to register as duplicates, never double-upserts.
func TestDrainRejoinZeroLoss(t *testing.T) {
	w := newWorld(t, 32)
	ctx := context.Background()
	reps, rt := w.newFleet(4)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	routed := serving.NewClient(front.URL)

	resp, err := routed.Ingest(ctx, ingestBatch(w.live))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted == 0 {
		t.Fatal("no points accepted")
	}
	// Group-commit every replica: everything accepted is now acknowledged.
	for _, rep := range reps {
		if err := rep.dur.CommitNow(); err != nil {
			t.Fatal(err)
		}
	}

	victim := reps[1]
	owned := victim.ing.Servers()
	if len(owned) == 0 {
		t.Fatal("victim owns no servers")
	}
	// Capture the acknowledged state: every owned server's live window.
	before := map[string][]float64{}
	for _, id := range owned {
		snap, ok := victim.ing.SnapshotInto(id, nil)
		if !ok {
			t.Fatalf("no window for %s", id)
		}
		before[id] = append([]float64(nil), snap.Values...)
	}

	// Hard-kill the victim: listener gone, no clean Close — the WAL is the
	// only thing standing between the fleet and data loss.
	victim.srv.Close()
	victim.svc.Close()

	// Rebuild the replica from the shared lake under the same namespace.
	reborn := w.newStack(victim.name, true)
	for id, want := range before {
		snap, ok := reborn.ing.SnapshotInto(id, nil)
		if !ok {
			t.Fatalf("server %s lost across the kill and rebuild", id)
		}
		if len(snap.Values) != len(want) {
			t.Fatalf("server %s window %d points, had %d acknowledged", id, len(snap.Values), len(want))
		}
		for i := range want {
			if snap.Values[i] != want[i] && !(snap.Values[i] != snap.Values[i] && want[i] != want[i]) {
				t.Fatalf("server %s point %d: %v recovered vs %v acknowledged", id, i, snap.Values[i], want[i])
			}
		}
	}

	// Bring the replica back behind a fresh router with the same seed and
	// names, at its new URL: the map is unchanged (same membership, same
	// seed), so no replica's assignment moved.
	oldOwners := map[string]string{}
	for _, id := range w.predictTargets() {
		oldOwners[id] = rt.Map().Owner(id)
	}
	reps[1] = reborn
	rt = w.newRouter(reps)
	for id, owner := range oldOwners {
		if got := rt.Map().Owner(id); got != owner {
			t.Fatalf("rebuilt router moved %s: %s -> %s", id, owner, got)
		}
	}
	rebuilt := httptest.NewServer(rt.Handler())
	defer rebuilt.Close()
	routed = serving.NewClient(rebuilt.URL)

	// An at-least-once client re-sends the whole batch: every point the
	// fleet already held must count as a duplicate — no double upserts.
	resend, err := routed.Ingest(ctx, ingestBatch(w.live))
	if err != nil {
		t.Fatal(err)
	}
	if resend.Accepted != 0 {
		t.Fatalf("re-send accepted %d points — the fleet had lost them", resend.Accepted)
	}
	if resend.Duplicates != resp.Accepted {
		t.Fatalf("re-send deduplicated %d of %d", resend.Duplicates, resp.Accepted)
	}

	// Full coverage restored: live predicts work for victim-owned servers.
	st := rt.Ready(ctx)
	if !st.Ready {
		t.Fatalf("fleet not ready after the rebuild: %+v", st)
	}
	for _, id := range owned {
		if _, err := routed.PredictV2(ctx, livePredict(id)); err != nil {
			t.Fatalf("predict %s after the rebuild: %v", id, err)
		}
	}
}
