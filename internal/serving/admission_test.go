package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"seagull/internal/admission"
	"seagull/internal/forecast"
	"seagull/internal/registry"
)

// saturateService occupies the service's limiter directly: one admitted
// ticket plus queued waiters until the queue holds queued entries. The
// returned release frees everything.
func saturateService(t *testing.T, svc *Service, queued int) (release func()) {
	t.Helper()
	ep := svc.limiter.Endpoint("POST /v2/predict", admission.Predict, 0)
	tk, res := ep.Acquire(context.Background(), false)
	if res.Verdict != admission.Admitted {
		t.Fatalf("saturate acquire: %v", res.Verdict)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < queued; i++ {
		go func() {
			// A cancel racing a grant can still admit this waiter; honor
			// the grant by releasing so the slot is never leaked.
			qtk, qres := ep.Acquire(ctx, false)
			if qres.Verdict == admission.Admitted {
				qtk.Release()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for svc.limiter.Stats().InQueue < queued {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d", queued)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		cancel()
		tk.Release()
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeErrCode(t *testing.T, resp *http.Response) ErrorCode {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	return env.Error.Code
}

func TestAdmissionShedsOverloadedWithRetryAfter(t *testing.T) {
	// MaxInflight 1 → QueueCap 2 (limiter default). One admitted + two
	// queued predicts saturate the process completely.
	srv, svc, reg := v2Server(t, ServiceConfig{MaxInflight: 1})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	release := saturateService(t, svc, 2)
	defer release()

	// A background request cannot evict the queued predicts: shed, 503,
	// Retry-After present, structured overloaded code.
	resp, err := http.Get(srv.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 shed carries no Retry-After")
	}
	if code := decodeErrCode(t, resp); code != CodeOverloaded {
		t.Errorf("code = %q, want %q", code, CodeOverloaded)
	}

	// Shed ingest is pacing, not an outage: 429 + Retry-After.
	resp = postJSON(t, srv.URL+"/v2/ingest", IngestRequest{
		Points: []IngestPoint{{ServerID: "s", TimeUnix: 0, Value: 1}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingest status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 shed carries no Retry-After")
	}
	if code := decodeErrCode(t, resp); code != CodeOverloaded {
		t.Errorf("ingest code = %q, want %q", code, CodeOverloaded)
	}

	// Liveness endpoints bypass admission even while saturated.
	for _, path := range []string{"/healthz", "/readyz", "/varz"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d under saturation, want 200", path, r.StatusCode)
		}
	}

	// Capacity freed: traffic flows again.
	release()
	resp, err = http.Get(srv.URL + "/v2/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", resp.StatusCode)
	}

	var vz Varz
	r, _ := http.Get(srv.URL + "/varz")
	if err := json.NewDecoder(r.Body).Decode(&vz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if vz.Admission == nil {
		t.Fatal("varz carries no admission section")
	}
	if vz.Admission.Sheds == 0 {
		t.Error("admission sheds not counted on varz")
	}
	if _, ok := vz.Admission.Endpoints["POST /v2/ingest"]; !ok {
		t.Error("per-endpoint admission stats missing ingest")
	}
}

func TestBrownoutPredictDegradesToPersistent(t *testing.T) {
	srv, svc, reg := v2Server(t, ServiceConfig{MaxInflight: 1, Brownout: true})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NameSSA, "")
	release := saturateService(t, svc, 1)

	req := PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv-1",
		History: FromSeries(weekHistory()), Horizon: 288, WindowPoints: 12,
	}
	resp := postJSON(t, srv.URL+"/v2/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("brownout status = %d, want 200", resp.StatusCode)
	}
	var pr PredictResponseV2
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !pr.Degraded {
		t.Error("saturated brownout predict must be flagged degraded")
	}
	if pr.Model != forecast.NamePersistentPrevDay {
		t.Errorf("degraded model = %q, want %q", pr.Model, forecast.NamePersistentPrevDay)
	}
	if len(pr.Forecast.Values) != 288 || pr.LLStart < 0 {
		t.Errorf("degraded forecast incomplete: len=%d llstart=%d", len(pr.Forecast.Values), pr.LLStart)
	}

	st := svc.limiter.Stats()
	if !st.Brownout || st.BrownoutEntries == 0 {
		t.Errorf("limiter does not report brownout: %+v", st)
	}
	if st.Endpoints["POST /v2/predict"].Degraded == 0 {
		t.Error("degraded counter not incremented")
	}

	// Saturation over: the full model serves again, unflagged.
	release()
	resp = postJSON(t, srv.URL+"/v2/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d", resp.StatusCode)
	}
	pr = PredictResponseV2{} // degraded is omitempty; don't keep the stale true
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Degraded || pr.Model != forecast.NameSSA {
		t.Errorf("recovered predict = (degraded=%v, model=%q), want full %q", pr.Degraded, pr.Model, forecast.NameSSA)
	}
}

func TestBrownoutDisabledShedsPredict(t *testing.T) {
	srv, svc, reg := v2Server(t, ServiceConfig{MaxInflight: 1})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	release := saturateService(t, svc, 2) // queue full
	defer release()

	resp := postJSON(t, srv.URL+"/v2/predict", PredictRequestV2{
		Scenario: "backup", Region: "r", History: FromSeries(weekHistory()), Horizon: 288,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 with brownout off and queue full", resp.StatusCode)
	}
}

func TestReadyzDrainingCarriesRetryAfter(t *testing.T) {
	srv, svc, _ := v2Server(t, ServiceConfig{DrainGrace: 7 * time.Second})
	svc.SetReady(false)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q (the drain grace)", got, "7")
	}
}

// The degraded fallback must equal a pf-prev-day deployment's answer: the
// brownout trades model quality, never correctness of the cheap model.
func TestBrownoutForecastEqualsPersistentDeployment(t *testing.T) {
	_, svc, reg := v2Server(t, ServiceConfig{MaxInflight: 1, Brownout: true})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")

	req := PredictRequestV2{
		Scenario: "backup", Region: "r", History: FromSeries(weekHistory()), Horizon: 288, WindowPoints: 12,
	}
	full, serr := svc.Predict(context.Background(), req)
	if serr != nil {
		t.Fatal(serr)
	}
	deg, serr := svc.PredictDegraded(context.Background(), req)
	if serr != nil {
		t.Fatal(serr)
	}
	if !deg.Degraded || deg.Model != full.Model {
		t.Fatalf("degraded = %+v vs full model %q", deg.Degraded, full.Model)
	}
	if len(full.Forecast.Values) != len(deg.Forecast.Values) {
		t.Fatal("forecast lengths differ")
	}
	for i := range full.Forecast.Values {
		if full.Forecast.Values[i] != deg.Forecast.Values[i] {
			t.Fatalf("forecast differs at %d: %v vs %v", i, full.Forecast.Values[i], deg.Forecast.Values[i])
		}
	}
	if full.LLStart != deg.LLStart || full.LLAvg != deg.LLAvg {
		t.Fatalf("lowest-load window differs: (%d,%v) vs (%d,%v)", full.LLStart, full.LLAvg, deg.LLStart, deg.LLAvg)
	}
}
