package router_test

// Router unit tests against scripted fake replicas: membership validation,
// readiness coverage, stateless failover, the drain/retry semantics of
// satellite endpoints (errors confined to the dead replica's shard, breaker
// opening, a replacement behind a fresh router restoring coverage), and
// fleet observability rendering.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/stream"
)

// fake is a scripted replica: it answers the serving wire protocol with
// canned bodies and counts what it saw.
type fake struct {
	name string
	srv  *httptest.Server
	hits atomic.Uint64 // traffic-bearing requests (not readyz/varz)

	mu       sync.Mutex
	lastBody string // body of the last predict or advise
	lastID   string // X-Request-Id of the last traffic-bearing request
}

// record notes one traffic-bearing request and returns its body.
func (f *fake) record(r *http.Request) []byte {
	f.hits.Add(1)
	body, _ := io.ReadAll(r.Body)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastBody, f.lastID = string(body), r.Header.Get("X-Request-Id")
	return body
}

// seen returns the last recorded body and request ID.
func (f *fake) seen() (body, id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastBody, f.lastID
}

func newFake(t testing.TB, name string) *fake {
	t.Helper()
	f := &fake{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /varz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(serving.Varz{})
	})
	mux.HandleFunc("POST /v2/predict", func(w http.ResponseWriter, r *http.Request) {
		var req serving.PredictRequestV2
		_ = json.Unmarshal(f.record(r), &req)
		_ = json.NewEncoder(w).Encode(serving.PredictResponseV2{
			ServerID: req.ServerID, Model: "fake-" + f.name,
		})
	})
	mux.HandleFunc("POST /v2/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		var req serving.BatchRequest
		_ = json.Unmarshal(f.record(r), &req)
		out := serving.BatchResponse{Model: "fake-" + f.name, Succeeded: len(req.Servers)}
		for _, s := range req.Servers {
			out.Results = append(out.Results, serving.BatchItemResult{
				ServerID: s.ServerID, Forecast: &serving.SeriesJSON{Values: []float64{1}},
			})
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("POST /v2/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req serving.IngestRequest
		_ = json.Unmarshal(f.record(r), &req)
		resp := serving.IngestResponse{Accepted: len(req.Points)}
		if req.Sweep != nil {
			resp.Sweep = &serving.SweepResult{
				Region: req.Sweep.Region, Week: req.Sweep.Week,
				Checked: 1, Servers: []string{f.name + "-srv"},
			}
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v2/models", func(w http.ResponseWriter, _ *http.Request) {
		f.hits.Add(1)
		_ = json.NewEncoder(w).Encode(serving.ModelsResponseV2{})
	})
	mux.HandleFunc("POST /v2/advise", func(w http.ResponseWriter, r *http.Request) {
		f.record(r)
		_ = json.NewEncoder(w).Encode(serving.AdviseResponse{KeepCurrent: true})
	})
	mux.HandleFunc("GET /v2/predictions/{region}/{week}", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		_ = json.NewEncoder(w).Encode(serving.PredictionsResponse{
			Region: r.PathValue("region"),
			Predictions: []*pipeline.PredictionDoc{
				{ServerID: "shared-srv"},
				{ServerID: f.name + "-srv"},
			},
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// newFakeFleet builds n scripted replicas and a fail-fast router (single
// attempt, breaker off unless asked) fronting them.
func newFakeFleet(t testing.TB, n int, mod func(*router.Config)) ([]*fake, *router.Router, *httptest.Server) {
	t.Helper()
	fakes := make([]*fake, n)
	for i := range fakes {
		fakes[i] = newFake(t, fmt.Sprintf("shard-%c", 'a'+i))
	}
	rt, front := newRouterOver(t, fakes, mod)
	return fakes, rt, front
}

// newRouterOver builds a router over fakes, served on a test front.
func newRouterOver(t testing.TB, fakes []*fake, mod func(*router.Config)) (*router.Router, *httptest.Server) {
	t.Helper()
	cfg := router.Config{
		Seed:    7,
		Retry:   serving.RetryConfig{MaxAttempts: 1},
		Breaker: serving.BreakerConfig{Threshold: -1},
	}
	for _, fk := range fakes {
		cfg.Replicas = append(cfg.Replicas, router.Replica{Name: fk.name, BaseURL: fk.srv.URL})
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

func post(t testing.TB, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

// ownedBy finds a server ID the map assigns to the wanted replica.
func ownedBy(t *testing.T, rt *router.Router, name string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		id := fmt.Sprintf("srv-%05d", i)
		if rt.Map().Owner(id) == name {
			return id
		}
	}
	t.Fatalf("no key hashes to %s", name)
	return ""
}

func TestNewValidation(t *testing.T) {
	if _, err := router.New(router.Config{}); err == nil {
		t.Error("no replicas must be rejected")
	}
	if _, err := router.New(router.Config{Replicas: []router.Replica{{Name: "a"}}}); err == nil {
		t.Error("missing base URL must be rejected")
	}
	if _, err := router.New(router.Config{Replicas: []router.Replica{
		{Name: "a", BaseURL: "http://x"}, {Name: "a", BaseURL: "http://y"},
	}}); err == nil {
		t.Error("duplicate replica names must be rejected")
	}
}

func TestHealthAndReadyCoverage(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	if resp, body := get(t, front.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, front.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz with full coverage: %d", resp.StatusCode)
	}
	fakes[1].srv.Close()
	resp, body := get(t, front.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead replica: %d", resp.StatusCode)
	}
	var st router.ReadyStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || !st.Replicas["shard-a"] || st.Replicas["shard-b"] {
		t.Fatalf("coverage misreported: %+v", st)
	}
}

func TestStatelessFailover(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	fakes[0].srv.Close()
	// Both GET and POST forwards must skip the dead replica. Two rounds so
	// the round-robin cursor starts on each replica at least once.
	for i := 0; i < 2; i++ {
		if resp, body := get(t, front.URL+"/v2/models"); resp.StatusCode != 200 {
			t.Fatalf("models failover: %d %s", resp.StatusCode, body)
		}
		if resp, body := post(t, front.URL+"/v2/advise", `{"predicted_day":{"values":[1]},"customer_start":0}`); resp.StatusCode != 200 || !strings.Contains(body, "keep_current") {
			t.Fatalf("advise failover: %d %s", resp.StatusCode, body)
		}
		if resp, body := post(t, front.URL+"/v2/predict", `{"history":{"values":[1]}}`); resp.StatusCode != 200 || !strings.Contains(body, "fake-shard-b") {
			t.Fatalf("stateless predict failover: %d %s", resp.StatusCode, body)
		}
	}
	if fakes[1].hits.Load() == 0 {
		t.Fatal("surviving replica saw no traffic")
	}
}

func TestStatelessAllDown(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	fakes[0].srv.Close()
	fakes[1].srv.Close()
	resp, body := get(t, front.URL+"/v2/models")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 when every replica is down, got %d", resp.StatusCode)
	}
	if !strings.Contains(body, "unavailable") {
		t.Fatalf("body: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("retryable outage must carry Retry-After")
	}
}

func TestStatelessDefinitiveErrorPassesThrough(t *testing.T) {
	// One replica that answers 404 with a structured envelope: the router
	// must relay it verbatim without failing over.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/models", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such deployment"}}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	other := newFake(t, "other")
	rt, err := router.New(router.Config{
		Replicas: []router.Replica{
			{Name: "bad", BaseURL: srv.URL},
			{Name: "other", BaseURL: other.srv.URL},
		},
		Retry:   serving.RetryConfig{MaxAttempts: 1},
		Breaker: serving.BreakerConfig{Threshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	// Probe until the cursor lands on the bad replica.
	sawNotFound := false
	for i := 0; i < 4; i++ {
		resp, body := get(t, front.URL+"/v2/models")
		if resp.StatusCode == http.StatusNotFound {
			sawNotFound = true
			if !strings.Contains(body, "no such deployment") {
				t.Fatalf("error not relayed verbatim: %s", body)
			}
		}
	}
	if !sawNotFound {
		t.Fatal("definitive upstream error never surfaced")
	}
}

func TestPredictValidationAndRouting(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)

	if resp, body := post(t, front.URL+"/v2/predict", `{"live_history":true}`); resp.StatusCode != 400 || !strings.Contains(body, "server_id") {
		t.Fatalf("live_history without server_id: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, front.URL+"/v2/predict", `{bad json`); resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}

	// With a server ID the request lands on the owner, bit-for-bit routed by
	// the map every router shares.
	id := ownedBy(t, rt, "shard-b")
	resp, body := post(t, front.URL+"/v2/predict", `{"server_id":"`+id+`","history":{"values":[1]}}`)
	if resp.StatusCode != 200 || !strings.Contains(body, "fake-shard-b") {
		t.Fatalf("owner routing: %d %s", resp.StatusCode, body)
	}
	if fakes[0].hits.Load() != 0 {
		t.Fatal("non-owner replica saw the routed predict")
	}

	// Without a server ID the request is stateless and round-robins: two
	// requests must land on two different replicas.
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		_, body := post(t, front.URL+"/v2/predict", `{"history":{"values":[1]}}`)
		var pr serving.PredictResponseV2
		_ = json.Unmarshal([]byte(body), &pr)
		seen[pr.Model] = true
	}
	if len(seen) != 2 {
		t.Fatalf("round-robin hit only %v", seen)
	}
}

func TestBodyTooLarge(t *testing.T) {
	router.LowerMaxBodyBytes(t, 64)
	_, _, front := newFakeFleet(t, 1, nil)
	big := `{"history":{"values":[` + strings.Repeat("1,", 200) + `1]}}`
	resp, body := post(t, front.URL+"/v2/predict", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "too_large") {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, body)
	}
}

// TestTrailingDataRefused: a body is exactly one JSON value on the router as
// on a replica, so data after the value answers 400 and reaches no replica.
func TestTrailingDataRefused(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	for path, body := range map[string]string{
		"/v2/predict":       `{"history":{"values":[1]}} trailing`,
		"/v2/predict/batch": `{"servers":[{"server_id":"s1"}]} {}`,
		"/v2/ingest":        `{"points":[{"server_id":"s1","value":1}]} trailing`,
		"/v2/advise":        `{"predicted_day":{"values":[1]},"customer_start":0} 1`,
	} {
		resp, got := post(t, front.URL+path, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, "bad_request") {
			t.Errorf("%s with trailing data: %d %s", path, resp.StatusCode, got)
		}
	}
	for _, f := range fakes {
		if n := f.hits.Load(); n != 0 {
			t.Errorf("%s saw %d requests with trailing data", f.name, n)
		}
	}
}

// TestRepeatedSplitArrayRoutesItemBytes: given a split array twice, the last
// one wins and each of its items is routed by its own bytes, which are all
// its owner receives. An item whose bytes name no server_id answers the
// router's 400 and reaches no replica, though encoding/json would have
// merged it into the earlier array's item at the same index.
func TestRepeatedSplitArrayRoutesItemBytes(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	for path, c := range map[string]struct{ body, want string }{
		"/v2/ingest": {
			`{"points":[{"server_id":"a","v":1}],"points":[{"t_unix":2}]}`,
			"points[0]: server_id is required",
		},
		"/v2/predict/batch": {
			`{"servers":[{"server_id":"a"},{"server_id":"b"}],"servers":[{"horizon":1}]}`,
			"servers[0]: server_id is required",
		},
	} {
		resp, got := post(t, front.URL+path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, c.want) {
			t.Errorf("%s: %d %s; want 400 %q", path, resp.StatusCode, got, c.want)
		}
	}
	for _, f := range fakes {
		if n := f.hits.Load(); n != 0 {
			t.Errorf("%s saw %d requests", f.name, n)
		}
	}
}

// TestRelayCopiesReplyBytes: a relayed predict or advise answers with the
// replica's reply bytes, field order included.
func TestRelayCopiesReplyBytes(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 1, nil)
	for path, body := range map[string]string{
		"/v2/predict": `{"server_id":"srv-1","history":{"values":[1]}}`,
		"/v2/advise":  `{"predicted_day":{"values":[1]},"customer_start":0}`,
	} {
		_, want := post(t, fakes[0].srv.URL+path, body)
		resp, got := post(t, front.URL+path, body)
		if resp.StatusCode != 200 || got != want {
			t.Errorf("%s: router answered %d %q, replica %q", path, resp.StatusCode, got, want)
		}
	}
}

// TestRelayForwardsRequestBytes: a relayed predict or advise reaches the
// replica as the bytes the client sent — whitespace and an unescaped '<'
// included — whether routed to the owner or round-robined. A split batch or
// ingest reaches each owner as its items' bytes as sent, in request order,
// after the members the router does not split (scenario, region, the
// broadcast sweep), also as sent; the router adds only the wrapper.
func TestRelayForwardsRequestBytes(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)
	id := ownedBy(t, rt, "shard-b")
	idA, idB := ownedBy(t, rt, "shard-a"), id
	itemA := `{ "history" : {"values":[1 ,2]}, "server_id":"` + idA + `", "note":"<a>" }`
	itemA2 := `{"server_id" : "` + idA + `","horizon":1}`
	itemB := `{"horizon":2,  "server_id":"` + idB + `"}`
	pointA := `{"v" : 1.50, "server_id":"` + idA + `","t_unix":60}`
	pointB := `{"server_id":"` + idB + `", "t_unix":120 ,"v":2}`
	sweep := `"sweep" : { "week":1, "region":"<w>" }`
	for _, c := range []struct {
		path, body string
		// want is the body each replica must receive; nil means the body
		// as posted, at whichever replica the route chose.
		want map[string]string
	}{
		{"/v2/predict", `{ "server_id" : "` + id + `", "region":"<west>", "history":{"values":[1, 2.50]} }` + "\n", nil},
		{"/v2/predict", `{"scenario" : "a<b",  "history":{"values":[ 1e3 ]}}`, nil},
		{"/v2/advise", `{"predicted_day" : {"values":[1 ,2]}, "customer_start":0, "note":"<x>"}`, nil},
		{
			"/v2/predict/batch",
			`{ "scenario" : "a<b", "servers" : [ ` + itemA + ` , ` + itemB + `,` + itemA2 + ` ], "region":"r" }`,
			map[string]string{
				"shard-a": `{"scenario" : "a<b","region":"r","servers":[` + itemA + `,` + itemA2 + `]}`,
				"shard-b": `{"scenario" : "a<b","region":"r","servers":[` + itemB + `]}`,
			},
		},
		{
			"/v2/ingest",
			`{"points":[` + pointB + `, ` + pointA + `], ` + sweep + `, "servers" : [` + itemB + `]}`,
			map[string]string{
				"shard-a": `{` + sweep + `,"points":[` + pointA + `]}`,
				"shard-b": `{` + sweep + `,"servers":[` + itemB + `],"points":[` + pointB + `]}`,
			},
		},
		{
			// A sweep reaches a replica that owns no item of the batch.
			"/v2/ingest",
			`{` + sweep + `,"points":[` + pointA + `]}`,
			map[string]string{
				"shard-a": `{` + sweep + `,"points":[` + pointA + `]}`,
				"shard-b": `{` + sweep + `}`,
			},
		},
	} {
		resp, got := post(t, front.URL+c.path, c.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d %s", c.path, resp.StatusCode, got)
		}
		if c.want != nil {
			for _, f := range fakes {
				if body, _ := f.seen(); body != c.want[f.name] {
					t.Errorf("%s: %s received\n%s\nwant\n%s", c.path, f.name, body, c.want[f.name])
				}
			}
			continue
		}
		var relayed []string
		for _, f := range fakes {
			if body, _ := f.seen(); body == c.body {
				relayed = append(relayed, f.name)
			}
		}
		if len(relayed) == 0 {
			a, _ := fakes[0].seen()
			b, _ := fakes[1].seen()
			t.Errorf("%s: no replica received %q byte for byte (saw %q, %q)", c.path, c.body, a, b)
		}
	}
}

// TestBatchOverLimitRefused: a routed batch over serving.MaxBatch answers
// exactly what one replica answers it, before any fan-out. Split across two
// owners, each sub-batch would pass its replica's limit.
func TestBatchOverLimitRefused(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)
	ids := make([]string, 300)
	items := make([]string, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("srv-%04d", i)
		items[i] = `{"server_id":"` + ids[i] + `"}`
	}
	if parts := rt.Map().Split(ids); len(parts) != 2 || len(parts["shard-a"]) > serving.MaxBatch || len(parts["shard-b"]) > serving.MaxBatch {
		t.Fatalf("the test needs both shards under the limit, got %d and %d of %d",
			len(parts["shard-a"]), len(parts["shard-b"]), len(ids))
	}
	body := `{"scenario":"backup","region":"r","servers":[` + strings.Join(items, ",") + `]}`

	replica := httptest.NewServer(serving.NewService(registry.New(nil), nil, serving.ServiceConfig{}).Handler())
	defer replica.Close()
	wantResp, want := post(t, replica.URL+"/v2/predict/batch", body)
	resp, got := post(t, front.URL+"/v2/predict/batch", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || resp.StatusCode != wantResp.StatusCode || got != want {
		t.Fatalf("router answered %d %s; one replica answers %d %s", resp.StatusCode, got, wantResp.StatusCode, want)
	}
	for _, f := range fakes {
		if n := f.hits.Load(); n != 0 {
			t.Errorf("%s saw %d requests for an over-limit batch", f.name, n)
		}
	}
}

// newServingFleet mounts n real serving replicas behind a router: each has
// its own ingest rings, and all share one registry deploying pf-prev-day to
// ("backup", "r").
func newServingFleet(t *testing.T, n int) ([]*stream.Ingestor, *router.Router, *httptest.Server) {
	t.Helper()
	reg := registry.New(nil)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, "pf-prev-day", "test")
	cfg := router.Config{
		Seed:    7,
		Retry:   serving.RetryConfig{MaxAttempts: 1},
		Breaker: serving.BreakerConfig{Threshold: -1},
	}
	ings := make([]*stream.Ingestor, n)
	for i := range ings {
		ings[i] = stream.NewIngestor(stream.Config{})
		svc := serving.NewService(reg, nil, serving.ServiceConfig{Ingestor: ings[i]})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { srv.Close(); svc.Close() })
		cfg.Replicas = append(cfg.Replicas, router.Replica{Name: fmt.Sprintf("shard-%c", 'a'+i), BaseURL: srv.URL})
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return ings, rt, front
}

// TestRoutedItemErrors pins what a malformed item answers now that its
// bytes reach its owner undecoded by the router. A batch still answers 400
// bad_request, with the owner's message. An ingest answers its owner's 400
// while the other owners may already have applied their well-formed points,
// which a corrected re-send then counts as duplicates — as one process
// already does when a later item of a batch is refused.
func TestRoutedItemErrors(t *testing.T) {
	ings, rt, front := newServingFleet(t, 2)
	idA, idB := ownedBy(t, rt, "shard-a"), ownedBy(t, rt, "shard-b")

	batch := `{"scenario":"backup","region":"r","servers":[` +
		`{"server_id":"` + idA + `","horizon":1,"history":{"start":"2024-01-01T00:00:00Z","interval_min":5,"values":[1,2,3]}},` +
		`{"server_id":"` + idB + `","horizon":"x"}]}`
	resp, out := post(t, front.URL+"/v2/predict/batch", batch)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out, `"bad_request"`) || !strings.Contains(out, "horizon") {
		t.Fatalf("ill-typed batch item: %d %s", resp.StatusCode, out)
	}

	const slot = 1_699_999_800 // a five-minute boundary
	ingest := func(vB string) (*http.Response, string) {
		return post(t, front.URL+"/v2/ingest", fmt.Sprintf(
			`{"points":[{"server_id":%q,"t_unix":%d,"v":1},{"server_id":%q,"t_unix":%d,"v":%s}]}`,
			idA, slot, idB, slot, vB))
	}
	resp, out = ingest(`"x"`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out, `"bad_request"`) {
		t.Fatalf("ill-typed ingest item: %d %s", resp.StatusCode, out)
	}
	if a, b := ings[0].Stats().Appended, ings[1].Stats().Appended; a != 1 || b != 0 {
		t.Fatalf("after the refused ingest shard-a appended %d, shard-b %d; want 1 and 0", a, b)
	}
	resp, out = ingest(`2`)
	var ir serving.IngestResponse
	if err := json.Unmarshal([]byte(out), &ir); err != nil || resp.StatusCode != 200 {
		t.Fatalf("corrected re-send: %d %s", resp.StatusCode, out)
	}
	if ir.Accepted != 1 || ir.Duplicates != 1 {
		t.Fatalf("corrected re-send accepted %d, duplicates %d; want 1 and 1", ir.Accepted, ir.Duplicates)
	}
}

// FuzzRouterPredict posts arbitrary bytes to the router's /v2/predict over
// a fake fleet. Whatever the bytes, the router never answers 500, never
// answers 200 to a body encoding/json rejects for its routing fields, and a
// replica it relays to receives exactly the bytes that were posted.
func FuzzRouterPredict(f *testing.F) {
	for _, seed := range []string{
		`{"server_id":"srv-1","history":{"values":[1, 2]}}`,
		`{ "history" : {"values":[1]}, "region":"<r>" }`,
		`{"history":{"values":[1]}} trailing`,
		`{"live_history":true}`,
		`{"server_id":7}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	fakes, _, front := newFakeFleet(f, 2, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := make([]uint64, len(fakes))
		for i, fk := range fakes {
			before[i] = fk.hits.Load()
		}
		resp, got := post(t, front.URL+"/v2/predict", string(body))
		if resp.StatusCode == http.StatusInternalServerError {
			t.Fatalf("answered 500: %s", got)
		}
		var route struct {
			ServerID    string `json:"server_id"`
			LiveHistory bool   `json:"live_history"`
		}
		if err := json.Unmarshal(body, &route); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("answered 200 to a body encoding/json rejects (%v)", err)
		}
		for i, fk := range fakes {
			if fk.hits.Load() == before[i] {
				continue
			}
			if seen, _ := fk.seen(); seen != string(body) {
				t.Fatalf("%s received %q, want the posted %q", fk.name, seen, body)
			}
		}
	})
}

// TestBatchFailureConfinedAndBreaker is drain/retry semantics: a replica
// killed mid-batch fails only its own items, repeated traffic trips its
// breaker, and a replacement behind a fresh router restores full coverage
// with no remapping.
func TestBatchFailureConfinedAndBreaker(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, func(c *router.Config) {
		c.Breaker = serving.BreakerConfig{Threshold: 2}
	})
	idA, idB := ownedBy(t, rt, "shard-a"), ownedBy(t, rt, "shard-b")
	fakes[1].srv.Close() // shard-b dies

	body := fmt.Sprintf(`{"servers":[{"server_id":"%s","history":{"values":[1]}},{"server_id":"%s","history":{"values":[1]}}]}`, idA, idB)
	resp, out := post(t, front.URL+"/v2/predict/batch", body)
	if resp.StatusCode != 200 {
		t.Fatalf("partial failure must still answer 200: %d %s", resp.StatusCode, out)
	}
	var br serving.BatchResponse
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 1 || br.Failed != 1 {
		t.Fatalf("tallies %d/%d, want 1 succeeded 1 failed", br.Succeeded, br.Failed)
	}
	for _, res := range br.Results {
		switch res.ServerID {
		case idA:
			if res.Error != nil || res.Forecast == nil {
				t.Fatalf("healthy shard's item failed: %+v", res)
			}
		case idB:
			if res.Error == nil || !strings.Contains(res.Error.Message, "shard-b") {
				t.Fatalf("dead shard's item must carry its replica's error: %+v", res.Error)
			}
		default:
			t.Fatalf("unknown result %q", res.ServerID)
		}
	}

	// Keep hitting the dead owner: the second consecutive failure opens the
	// breaker, and from then on the path fails fast.
	var sawOpen bool
	for i := 0; i < 4; i++ {
		_, out := post(t, front.URL+"/v2/predict", `{"server_id":"`+idB+`","history":{"values":[1]}}`)
		if strings.Contains(out, "circuit") {
			sawOpen = true
			break
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened against the dead replica")
	}

	// The replacement comes back under the same name at a fresh address,
	// behind a router started with the same seed and names: same map, fresh
	// client, full coverage back.
	replacement := newFake(t, "shard-b")
	rebuilt, front := newRouterOver(t, []*fake{fakes[0], replacement}, func(c *router.Config) {
		c.Breaker = serving.BreakerConfig{Threshold: 2}
	})
	if rebuilt.Map().Owner(idA) != "shard-a" || rebuilt.Map().Owner(idB) != "shard-b" {
		t.Fatal("the rebuilt router moved an owner")
	}
	resp, out = post(t, front.URL+"/v2/predict", `{"server_id":"`+idB+`","history":{"values":[1]}}`)
	if resp.StatusCode != 200 || !strings.Contains(out, "fake-shard-b") {
		t.Fatalf("replacement replica not serving: %d %s", resp.StatusCode, out)
	}
}

func TestIngestValidationAndSweepBroadcast(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)

	if resp, _ := post(t, front.URL+"/v2/ingest", `{}`); resp.StatusCode != 400 {
		t.Fatalf("empty ingest: %d", resp.StatusCode)
	}
	if resp, _ := post(t, front.URL+"/v2/ingest", `{"points":[{"t":1,"v":1}]}`); resp.StatusCode != 400 {
		t.Fatalf("point without server_id: %d", resp.StatusCode)
	}
	if resp, _ := post(t, front.URL+"/v2/ingest", `{"servers":[{"start":"2020-01-01T00:00:00Z"}]}`); resp.StatusCode != 400 {
		t.Fatalf("series without server_id: %d", resp.StatusCode)
	}

	// A sweep-only request must reach every replica, and the merged result
	// must sum tallies and union server lists.
	idA := ownedBy(t, rt, "shard-a")
	resp, out := post(t, front.URL+"/v2/ingest",
		`{"points":[{"server_id":"`+idA+`","t":1,"v":1}],"sweep":{"region":"westus","week":1}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep broadcast: %d %s", resp.StatusCode, out)
	}
	var ir serving.IngestResponse
	if err := json.Unmarshal([]byte(out), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Sweep == nil || ir.Sweep.Checked != 2 || len(ir.Sweep.Servers) != 2 {
		t.Fatalf("sweep must cover both shards: %+v", ir.Sweep)
	}
	for _, f := range fakes {
		if f.hits.Load() == 0 {
			t.Fatalf("replica %s never swept", f.name)
		}
	}

	// A dead owner fails the batch loudly with a retryable status — the
	// idempotent appends make the client's re-send safe.
	fakes[0].srv.Close()
	resp, _ = post(t, front.URL+"/v2/ingest", `{"points":[{"server_id":"`+idA+`","t":1,"v":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("dead owner must be a retryable 503: %d", resp.StatusCode)
	}
}

func TestPredictionsUnion(t *testing.T) {
	fakes, _, front := newFakeFleet(t, 2, nil)
	resp, out := get(t, front.URL+"/v2/predictions/westus/3")
	if resp.StatusCode != 200 {
		t.Fatalf("predictions: %d %s", resp.StatusCode, out)
	}
	var pr serving.PredictionsResponse
	if err := json.Unmarshal([]byte(out), &pr); err != nil {
		t.Fatal(err)
	}
	// Each fake returns {shared-srv, <name>-srv}: the union is 3 docs,
	// deduplicated and sorted by server ID.
	if len(pr.Predictions) != 3 {
		t.Fatalf("union holds %d docs, want 3: %s", len(pr.Predictions), out)
	}
	for i := 1; i < len(pr.Predictions); i++ {
		if pr.Predictions[i-1].ServerID >= pr.Predictions[i].ServerID {
			t.Fatalf("union not sorted: %s", out)
		}
	}
	if resp, _ := get(t, front.URL+"/v2/predictions/westus/x"); resp.StatusCode != 400 {
		t.Fatalf("non-numeric week: %d", resp.StatusCode)
	}

	// One replica down: the surviving shard's docs still serve.
	fakes[0].srv.Close()
	resp, out = get(t, front.URL+"/v2/predictions/westus/3")
	if resp.StatusCode != 200 {
		t.Fatalf("partial predictions: %d", resp.StatusCode)
	}
	_ = json.Unmarshal([]byte(out), &pr)
	if len(pr.Predictions) != 2 {
		t.Fatalf("surviving docs %d, want 2", len(pr.Predictions))
	}
	// Both down: the error surfaces.
	fakes[1].srv.Close()
	if resp, _ := get(t, front.URL+"/v2/predictions/westus/3"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predictions with no replicas: %d", resp.StatusCode)
	}
}

func TestFleetVarzAndMetrics(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)
	post(t, front.URL+"/v2/predict", `{bad`) // one route error for the counters

	var fv router.FleetVarz
	resp, out := get(t, front.URL+"/varz")
	if resp.StatusCode != 200 {
		t.Fatalf("varz: %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(out), &fv); err != nil {
		t.Fatal(err)
	}
	if len(fv.Members) != 2 || fv.ReadyReplicas != 2 {
		t.Fatalf("fleet view: %+v", fv)
	}
	rv := fv.Routes["POST /v2/predict"]
	if rv.Count != 1 || rv.Errors != 1 {
		t.Fatalf("route counters: %+v", fv.Routes)
	}
	for name, rep := range fv.Replicas {
		if !rep.Ready || rep.Varz == nil {
			t.Fatalf("replica %s: %+v", name, rep)
		}
	}

	resp, out = get(t, front.URL+"/metrics")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"seagull_router_replicas 2",
		"seagull_router_ready_replicas 2",
		`seagull_router_requests_total{route="POST /v2/predict"} 1`,
		`seagull_router_replica_up{replica="shard-a"} 1`,
		"seagull_fleet_servers",
		"seagull_fleet_wal_commits_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}

	// A dead replica flips its up-gauge and records an error in varz.
	fakes[1].srv.Close()
	fv = rt.FleetVarz(context.Background())
	if fv.ReadyReplicas != 1 || fv.Replicas["shard-b"].Error == "" {
		t.Fatalf("dead replica not reflected: %+v", fv.Replicas["shard-b"])
	}
	var buf bytes.Buffer
	rec := httptest.NewRecorder()
	if err := rt.WriteMetrics(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	buf.ReadFrom(rec.Result().Body)
	if !strings.Contains(buf.String(), `seagull_router_replica_up{replica="shard-b"} 0`) {
		t.Fatal("dead replica still reported up")
	}
}

// TestRoutedRequestCarriesRequestID: the router accounts requests with the
// same instrument as a replica, so a routed request echoes the caller's
// X-Request-Id — or gets one minted — exactly like a direct one, and every
// replica the request reaches sees that same ID.
func TestRoutedRequestCarriesRequestID(t *testing.T) {
	fakes, rt, front := newFakeFleet(t, 2, nil)
	body := fmt.Sprintf(`{"server_id":%q,"live_history":true,"horizon":1}`, ownedBy(t, rt, "shard-a"))

	req, err := http.NewRequest("POST", front.URL+"/v2/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "follow-me-3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed predict: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "follow-me-3" {
		t.Fatalf("X-Request-Id echo = %q, want follow-me-3", got)
	}

	if _, got := fakes[0].seen(); got != "follow-me-3" {
		t.Fatalf("replica saw X-Request-Id %q, want the client's follow-me-3", got)
	}

	minted, _ := post(t, front.URL+"/v2/predict", body)
	id := minted.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("routed request without an ID got none minted")
	}
	if _, got := fakes[0].seen(); got != id {
		t.Fatalf("replica saw X-Request-Id %q, want the minted %q", got, id)
	}

	// The fan-outs carry the ID to every replica they reach.
	batch := fmt.Sprintf(`{"servers":[{"server_id":%q},{"server_id":%q}]}`,
		ownedBy(t, rt, "shard-a"), ownedBy(t, rt, "shard-b"))
	req, err = http.NewRequest("POST", front.URL+"/v2/predict/batch", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "fan-out-4")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, f := range fakes {
		if _, got := f.seen(); got != "fan-out-4" {
			t.Errorf("%s saw X-Request-Id %q on the batch, want fan-out-4", f.name, got)
		}
	}
}
