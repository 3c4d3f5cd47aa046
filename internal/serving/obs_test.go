package serving

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"seagull/internal/forecast"
	"seagull/internal/obs"
	"seagull/internal/registry"
)

// tracedServer is v2Server with a tracer attached — the configuration
// seagull-serve always runs with.
func tracedServer(t *testing.T, cfg ServiceConfig) (*httptest.Server, *Service, *registry.Registry) {
	t.Helper()
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{})
	return v2Server(t, cfg)
}

// warmPredicts deploys a model and issues n predicts so every observability
// surface has content.
func warmPredicts(t *testing.T, srv *httptest.Server, reg *registry.Registry, n int) {
	t.Helper()
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	c := NewClient(srv.URL)
	req := PredictRequestV2{
		Scenario: "backup", Region: "r",
		History: FromSeries(weekHistory()), Horizon: 288,
	}
	for i := 0; i < n; i++ {
		if _, err := c.PredictV2(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVarzGoldenShape pins the /varz JSON contract: the exact top-level key
// set and the per-endpoint key set. New fields must land here deliberately —
// dashboards parse this document.
func TestVarzGoldenShape(t *testing.T) {
	srv, _, reg := tracedServer(t, ServiceConfig{})
	warmPredicts(t, srv, reg, 1)

	resp, err := http.Get(srv.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(doc))
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	// No stream layer attached: the ingest/drift/refresh/sweeper/durability
	// sections are omitted. Admission control is on by default.
	want := []string{"admission", "endpoints", "pool", "uptime_sec"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("varz top-level keys = %v, want %v", got, want)
	}

	var eps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(doc["endpoints"], &eps); err != nil {
		t.Fatal(err)
	}
	ep, ok := eps["POST /v2/predict"]
	if !ok {
		t.Fatalf("endpoints = %v", eps)
	}
	var epKeys []string
	for k := range ep {
		epKeys = append(epKeys, k)
	}
	sort.Strings(epKeys)
	wantEp := []string{"count", "errors", "in_flight", "latency_counts", "latency_ms_bounds", "latency_ms_sum"}
	if strings.Join(epKeys, ",") != strings.Join(wantEp, ",") {
		t.Fatalf("endpoint keys = %v, want %v", epKeys, wantEp)
	}
	// The observability surfaces themselves are registered endpoints.
	for _, name := range []string{"GET /varz", "GET /metrics", "GET /debug/traces"} {
		if _, ok := eps[name]; !ok {
			t.Errorf("endpoint %q not instrumented", name)
		}
	}
}

// expoSample is one parsed exposition line.
type expoSample struct {
	name   string
	labels string // raw {...} content, le pair removed for histogram grouping
	le     string
	value  float64
}

// parseExpo parses Prometheus text exposition 0.0.4 into TYPE declarations
// and samples, failing the test on any malformed line.
func parseExpo(t *testing.T, body string) (types map[string]string, samples []expoSample) {
	t.Helper()
	types = map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Split at the LAST space: label values may contain spaces
		// (endpoint="GET /varz"); exposition values never do.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		nameAndLabels, valStr := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := expoSample{name: nameAndLabels, value: v}
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			s.name = nameAndLabels[:i]
			inner := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			var kept []string
			for _, pair := range strings.Split(inner, ",") {
				if rest, ok := strings.CutPrefix(pair, `le="`); ok {
					s.le = strings.TrimSuffix(rest, `"`)
					continue
				}
				kept = append(kept, pair)
			}
			s.labels = strings.Join(kept, ",")
		}
		samples = append(samples, s)
	}
	return types, samples
}

// family resolves a sample name to its declared family: the exact name when
// declared (a counter may legitimately end in _sum), else the histogram base
// after stripping the _bucket/_sum/_count suffix.
func family(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f
		}
	}
	return name
}

// TestMetricsExposition scrapes /metrics twice and verifies the exposition
// contract: every sample belongs to a declared family, histogram triples are
// internally consistent (cumulative buckets, +Inf == _count), and counters
// never decrease between scrapes.
func TestMetricsExposition(t *testing.T) {
	srv, _, reg := tracedServer(t, ServiceConfig{})
	warmPredicts(t, srv, reg, 2)

	scrape := func() (map[string]string, []expoSample) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.ExpoContentType {
			t.Fatalf("content-type = %q, want %q", ct, obs.ExpoContentType)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseExpo(t, string(body))
	}

	types, samples := scrape()
	if len(samples) == 0 {
		t.Fatal("no samples scraped")
	}
	for _, s := range samples {
		if _, ok := types[family(s.name, types)]; !ok {
			t.Errorf("sample %s has no TYPE declaration", s.name)
		}
	}
	for _, name := range []string{
		"seagull_http_requests_total", "seagull_pool_hits_total",
		"seagull_http_request_duration_seconds", "seagull_trace_stage_total",
	} {
		if _, ok := types[name]; !ok {
			t.Errorf("family %s missing (have %v)", name, types)
		}
	}

	// Histogram triples: per (family, label set), buckets are cumulative in
	// ascending le order, the +Inf bucket equals _count, and _sum exists.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		buckets := map[string][]expoSample{}
		counts := map[string]float64{}
		sums := map[string]bool{}
		for _, s := range samples {
			switch s.name {
			case fam + "_bucket":
				buckets[s.labels] = append(buckets[s.labels], s)
			case fam + "_count":
				counts[s.labels] = s.value
			case fam + "_sum":
				sums[s.labels] = true
			}
		}
		if len(buckets) == 0 {
			t.Errorf("histogram %s has no buckets", fam)
		}
		for labels, bs := range buckets {
			sort.Slice(bs, func(i, j int) bool { return leLess(bs[i].le, bs[j].le) })
			prev := -1.0
			for _, b := range bs {
				if b.value < prev {
					t.Errorf("%s{%s}: bucket le=%s count %v below previous %v", fam, labels, b.le, b.value, prev)
				}
				prev = b.value
			}
			last := bs[len(bs)-1]
			if last.le != "+Inf" {
				t.Errorf("%s{%s}: last bucket le=%s, want +Inf", fam, labels, last.le)
			}
			if c, ok := counts[labels]; !ok || c != last.value {
				t.Errorf("%s{%s}: +Inf bucket %v != _count %v", fam, labels, last.value, c)
			}
			if !sums[labels] {
				t.Errorf("%s{%s}: missing _sum", fam, labels)
			}
		}
	}

	// Counter monotonicity across scrapes, with traffic in between.
	warmPredicts(t, srv, reg, 2)
	_, samples2 := scrape()
	first := map[string]float64{}
	for _, s := range samples {
		if types[family(s.name, types)] == "counter" {
			first[s.name+"{"+s.labels+"}"] = s.value
		}
	}
	for _, s := range samples2 {
		if types[family(s.name, types)] != "counter" {
			continue
		}
		if prev, ok := first[s.name+"{"+s.labels+"}"]; ok && s.value < prev {
			t.Errorf("counter %s{%s} went backwards: %v -> %v", s.name, s.labels, prev, s.value)
		}
	}
}

// leLess orders le bucket labels numerically with +Inf last.
func leLess(a, b string) bool {
	if a == "+Inf" {
		return false
	}
	if b == "+Inf" {
		return true
	}
	fa, _ := strconv.ParseFloat(a, 64)
	fb, _ := strconv.ParseFloat(b, 64)
	return fa < fb
}

// TestTracesEndpointAndRequestID: the request ID round-trips (inbound header
// honored, response header always set), spans land in /debug/traces, ?n=
// bounds the recent list and a bad n is a 400.
func TestTracesEndpointAndRequestID(t *testing.T) {
	srv, _, reg := tracedServer(t, ServiceConfig{})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")

	body, _ := json.Marshal(PredictRequestV2{
		Scenario: "backup", Region: "r",
		History: FromSeries(weekHistory()), Horizon: 288,
	})
	req, _ := http.NewRequest("POST", srv.URL+"/v2/predict", strings.NewReader(string(body)))
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-7" {
		t.Fatalf("X-Request-Id echo = %q, want trace-me-7", got)
	}

	// A request without the header gets a minted ID.
	resp2, err := http.Post(srv.URL+"/v2/predict", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id minted")
	}

	tresp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var doc TracesDoc
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled {
		t.Fatal("traces disabled on a traced service")
	}
	var predictTrace *obs.TraceView
	for i := range doc.Recent {
		if doc.Recent[i].RequestID == "trace-me-7" {
			predictTrace = &doc.Recent[i]
		}
	}
	if predictTrace == nil {
		t.Fatalf("trace-me-7 not in recent traces: %+v", doc.Recent)
	}
	stages := map[string]bool{}
	for _, sp := range predictTrace.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"checkout", "train", "inference"} {
		if !stages[want] {
			t.Errorf("predict trace missing %s span: %+v", want, predictTrace.Spans)
		}
	}
	if len(doc.Stages) == 0 {
		t.Error("no stage aggregates")
	}

	// ?n= caps the recent list; a bad n is a clean 400.
	nresp, err := http.Get(srv.URL + "/debug/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var capped TracesDoc
	if err := json.NewDecoder(nresp.Body).Decode(&capped); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if len(capped.Recent) > 1 {
		t.Errorf("n=1 returned %d traces", len(capped.Recent))
	}
	bad, err := http.Get(srv.URL + "/debug/traces?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("n=bogus status = %d, want 400", bad.StatusCode)
	}
}

// TestTracesDisabled: without a tracer the endpoint reports enabled:false
// instead of 404ing; the request ID is the instrument's, not the tracer's, so
// it is still minted.
func TestTracesDisabled(t *testing.T) {
	srv, _, _ := v2Server(t, ServiceConfig{})
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc TracesDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Enabled || len(doc.Recent) != 0 {
		t.Fatalf("untraced service reported %+v", doc)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("untraced service minted no request ID")
	}
}
