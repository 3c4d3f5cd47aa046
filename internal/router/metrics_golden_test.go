package router_test

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/stream"
)

// The golden files were captured at the commit before the metric renderers
// were folded into internal/obs; regenerate only when a family is added or
// renamed on purpose.
var updateGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/*_metrics.golden")

// metricShape reduces an exposition document to what a dashboard depends on:
// the # HELP and # TYPE lines verbatim and every sample's name and labels
// (values dropped), sorted.
func metricShape(t *testing.T, body string) string {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			line = line[:cut]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the golden shape:\n%s", name, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// newFullStack mounts a replica with every optional section attached —
// ingest, drift, refresher, sweeper, durability, admission and a tracer — so
// its /metrics carries every family the service can emit.
func (w *world) newFullStack(name string) *replicaStack {
	w.t.Helper()
	st := &replicaStack{name: name}
	st.ing = stream.NewIngestor(stream.Config{
		Interval: testSlot,
		Epoch:    w.fleet.Config.Start,
		Slots:    (testWeeks + 1) * int(7*24*60/5),
	})
	tracer := obs.NewTracer(obs.TracerConfig{})
	det := stream.NewDriftDetector(st.ing, w.db)
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	w.t.Cleanup(pool.Bind(w.reg))
	ref := stream.NewRefresher(st.ing, w.db, w.reg, pool, stream.RefreshConfig{Tracer: tracer})
	sw := stream.NewSweeper(w.db, det, ref, stream.SweeperConfig{Tracer: tracer})
	st.dur = stream.NewDurability(st.ing, w.store, stream.DurabilityConfig{Namespace: name, SnapshotEvery: -1})
	if _, err := st.dur.Recover(); err != nil {
		w.t.Fatal(err)
	}
	if err := st.dur.Open(); err != nil {
		w.t.Fatal(err)
	}
	st.svc = serving.NewService(w.reg, w.db, serving.ServiceConfig{
		Ingestor: st.ing, Drift: det, Refresher: ref, Sweeper: sw, Durability: st.dur, Tracer: tracer,
	})
	st.srv = httptest.NewServer(st.svc.Handler())
	w.t.Cleanup(st.close)
	return st
}

// TestMetricsGoldenShape pins the scrape contract of both tiers across the
// fold of the renderers into internal/obs: same families, same kinds, same
// HELP text, same sample names and labels on a replica's /metrics and on the
// router's.
func TestMetricsGoldenShape(t *testing.T) {
	w := newWorld(t, 12)
	ctx := context.Background()
	reps := []*replicaStack{w.newFullStack("shard-a"), w.newFullStack("shard-b")}
	rt, err := router.New(router.Config{Seed: 42, Replicas: []router.Replica{
		{Name: reps[0].name, BaseURL: reps[0].srv.URL},
		{Name: reps[1].name, BaseURL: reps[1].srv.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	routed := serving.NewClient(front.URL)

	// Touch every traced stage the request path has: ingest, then a live
	// predict per replica (admission, checkout, train, inference).
	if _, err := routed.Ingest(ctx, ingestBatch(w.live)); err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		ids := rep.ing.Servers()
		if len(ids) == 0 {
			t.Fatalf("replica %s owns no servers", rep.name)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, err := routed.PredictV2(ctx, livePredict(id)); err == nil {
				break
			}
		}
	}

	checkGolden(t, "replica_metrics.golden", metricShape(t, scrape(t, reps[0].srv.URL)))
	checkGolden(t, "router_metrics.golden", metricShape(t, scrape(t, front.URL)))
}
