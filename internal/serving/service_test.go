package serving

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/modelpool"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

func v2Server(t *testing.T, cfg ServiceConfig) (*httptest.Server, *Service, *registry.Registry) {
	t.Helper()
	reg := registry.New(nil)
	svc := NewService(reg, nil, cfg)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, svc, reg
}

// lowerLimit sets a package limit to v until t ends.
func lowerLimit[T int | int64](t *testing.T, limit *T, v T) {
	old := *limit
	*limit = v
	t.Cleanup(func() { *limit = old })
}

func TestPredictV2EndToEnd(t *testing.T) {
	srv, _, reg := v2Server(t, ServiceConfig{})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "westus"}, forecast.NamePersistentPrevDay, "")
	c := NewClient(srv.URL)
	ctx := context.Background()

	hist := weekHistory()
	req := PredictRequestV2{
		Scenario: "backup", Region: "westus", ServerID: "srv-1",
		History: FromSeries(hist), Horizon: 288, WindowPoints: 12,
	}
	resp, err := c.PredictV2(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != forecast.NamePersistentPrevDay || resp.Version != 1 || resp.ServerID != "srv-1" {
		t.Errorf("resp = %+v", resp)
	}
	pred := resp.Forecast.ToSeries()
	if pred.Len() != 288 {
		t.Fatalf("forecast len = %d", pred.Len())
	}
	// Persistent prev-day forecast equals the last history day, and follows
	// the history without a gap.
	last, _ := hist.Day(6)
	for i := range pred.Values {
		if pred.Values[i] != last.Values[i] {
			t.Fatalf("forecast differs from last day at %d", i)
		}
	}
	if !pred.Start.Equal(hist.End()) {
		t.Errorf("forecast start = %v, want %v", pred.Start, hist.End())
	}
	// The server-side LL window must equal a client-side recomputation.
	ll, err := metrics.LowestLoadWindow(pred, 12)
	if err != nil {
		t.Fatal(err)
	}
	if resp.LLStart != ll.Start || resp.LLAvg != ll.AvgLoad {
		t.Errorf("ll = (%d, %v), want (%d, %v)", resp.LLStart, resp.LLAvg, ll.Start, ll.AvgLoad)
	}
	if resp.Pooled {
		t.Error("first request cannot be served warm")
	}
	resp2, err := c.PredictV2(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Pooled {
		t.Error("second request must hit the warm pool")
	}
	for i := range resp.Forecast.Values {
		if resp.Forecast.Values[i] != resp2.Forecast.Values[i] {
			t.Fatalf("warm forecast differs at %d", i)
		}
	}
}

func TestPredictBatchEndToEnd(t *testing.T) {
	srv, _, reg := v2Server(t, ServiceConfig{})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	c := NewClient(srv.URL)

	good := FromSeries(weekHistory())
	short := SeriesJSON{Start: t0, IntervalMin: 5, Values: []float64{1, 2, 3}}
	req := BatchRequest{
		Scenario: "backup", Region: "r",
		Servers: []BatchItem{
			{ServerID: "a", History: good, Horizon: 288, WindowPoints: 12},
			{ServerID: "too-short", History: short, Horizon: 288},
			{ServerID: "b", History: good, Horizon: 288},
			{ServerID: "bad-horizon", History: good, Horizon: 0},
			{ServerID: "at-the-cap", History: good, Horizon: maxHorizon},
			{ServerID: "past-the-cap", History: good, Horizon: maxHorizon + 1},
		},
	}
	resp, err := c.PredictBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 3 || resp.Failed != 3 {
		t.Fatalf("succeeded=%d failed=%d, want 3/3", resp.Succeeded, resp.Failed)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	// Results arrive in request order with per-item error codes.
	if resp.Results[0].ServerID != "a" || resp.Results[0].Error != nil || resp.Results[0].LLStart < 0 {
		t.Errorf("results[0] = %+v", resp.Results[0])
	}
	if e := resp.Results[1].Error; e == nil || e.Code != CodeUntrainable {
		t.Errorf("results[1].Error = %+v, want %s", resp.Results[1].Error, CodeUntrainable)
	}
	if resp.Results[2].Error != nil || resp.Results[2].Forecast == nil {
		t.Errorf("results[2] = %+v", resp.Results[2])
	}
	if e := resp.Results[3].Error; e == nil || e.Code != CodeBadRequest {
		t.Errorf("results[3].Error = %+v, want %s", resp.Results[3].Error, CodeBadRequest)
	}
	// The horizon cap is per item: the cap itself serves, one past it fails
	// alone with too_large.
	if r := resp.Results[4]; r.Error != nil || len(r.Forecast.Values) != maxHorizon {
		t.Errorf("results[4] = %+v, want a %d-point forecast", r.Error, maxHorizon)
	}
	if e := resp.Results[5].Error; e == nil || e.Code != CodeTooLarge {
		t.Errorf("results[5].Error = %+v, want %s", resp.Results[5].Error, CodeTooLarge)
	}
	// A batch forecast must equal a single-predict forecast for the same input.
	single, err := c.PredictV2(context.Background(), PredictRequestV2{
		Scenario: "backup", Region: "r", History: good, Horizon: 288,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Forecast.Values {
		if single.Forecast.Values[i] != resp.Results[0].Forecast.Values[i] {
			t.Fatalf("batch forecast differs from single at %d", i)
		}
	}
}

// TestConcurrentServing hammers single and batch predicts concurrently; its
// value is under -race (CI runs the serving package with the race detector):
// the warm pool must hand out exclusive instances, never sharing one model
// across goroutines.
func TestConcurrentServing(t *testing.T) {
	srv, svc, reg := v2Server(t, ServiceConfig{Workers: 4})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	c := NewClient(srv.URL)
	ctx := context.Background()

	good := FromSeries(weekHistory())
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if g%2 == 0 {
					_, err := c.PredictV2(ctx, PredictRequestV2{
						Scenario: "backup", Region: "r", History: good, Horizon: 288,
					})
					if err != nil {
						errCh <- err
						return
					}
					continue
				}
				_, err := c.PredictBatch(ctx, BatchRequest{
					Scenario: "backup", Region: "r",
					Servers: []BatchItem{
						{ServerID: "x", History: good, Horizon: 288},
						{ServerID: "y", History: good, Horizon: 288},
						{ServerID: "z", History: good, Horizon: 288},
					},
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := svc.Pool().Stats()
	if st.Hits == 0 {
		t.Error("concurrent serving should produce warm hits")
	}
}

func TestPoolInvalidationAcrossDeployments(t *testing.T) {
	srv, svc, reg := v2Server(t, ServiceConfig{})
	target := registry.Target{Scenario: "backup", Region: "r"}
	v1 := reg.Deploy(target, forecast.NamePersistentPrevDay, "")
	if err := reg.RecordAccuracy(target, v1, 0.97); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL)
	ctx := context.Background()
	req := PredictRequestV2{Scenario: "backup", Region: "r", History: FromSeries(weekHistory()), Horizon: 288}

	resp, err := c.PredictV2(ctx, req)
	if err != nil || resp.Version != 1 {
		t.Fatalf("v1 predict: %+v %v", resp, err)
	}
	resp, err = c.PredictV2(ctx, req)
	if err != nil || !resp.Pooled {
		t.Fatalf("expected warm v1 hit: %+v %v", resp, err)
	}

	// Promote a new model: the next request must serve the new version cold.
	reg.Deploy(target, forecast.NamePersistentPrevWeek, "")
	resp, err = c.PredictV2(ctx, req)
	if err != nil || resp.Version != 2 || resp.Model != forecast.NamePersistentPrevWeek || resp.Pooled {
		t.Fatalf("after promote: %+v %v", resp, err)
	}

	// Roll back to the known-good v1: again a cold hit of the old version.
	if _, err := reg.Fallback(target, 0.9); err != nil {
		t.Fatal(err)
	}
	resp, err = c.PredictV2(ctx, req)
	if err != nil || resp.Version != 1 || resp.Model != forecast.NamePersistentPrevDay || resp.Pooled {
		t.Fatalf("after rollback: %+v %v", resp, err)
	}
	if st := svc.Pool().Stats(); st.Invalidations == 0 {
		t.Errorf("stats = %+v, want invalidations > 0", st)
	}
}

// blockingModel wraps a persistent forecaster and parks every Train until
// released, letting the cancellation test control batch progress.
type blockingModel struct {
	forecast.Model
	started chan<- struct{}
	release <-chan struct{}
}

func (m *blockingModel) Train(h timeseries.Series) error {
	m.started <- struct{}{}
	<-m.release
	return m.Model.Train(h)
}

func TestBatchCancellationMidBatch(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	reg := registry.New(nil)
	svc := NewService(reg, nil, ServiceConfig{
		Workers: 2,
		Pool: modelpool.Config{NewModel: func(name string, seed int64) (forecast.Model, error) {
			inner, err := forecast.New(name, seed)
			if err != nil {
				return nil, err
			}
			return &blockingModel{Model: inner, started: started, release: release}, nil
		}},
	})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")

	good := FromSeries(weekHistory())
	items := make([]BatchItem, 16)
	for i := range items {
		items[i] = BatchItem{ServerID: "s", History: good, Horizon: 288}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var (
		resp BatchResponse
		serr *ServiceError
	)
	go func() {
		resp, serr = svc.PredictBatch(ctx, BatchRequest{Scenario: "backup", Region: "r", Servers: items})
		close(done)
	}()

	// Wait until both workers are mid-Train, cancel, then release them.
	<-started
	<-started
	cancel()
	close(release)
	<-done

	if serr == nil || serr.Code != CodeCanceled {
		t.Fatalf("serr = %+v, want %s", serr, CodeCanceled)
	}
	if resp.Results != nil {
		t.Errorf("cancelled batch must not return partial results, got %d", len(resp.Results))
	}
	// Drain the remaining started signals, if any worker claimed one more
	// item between the cancel and its next claim check.
	for {
		select {
		case <-started:
		default:
			return
		}
	}
}

func TestStructuredErrorCodes(t *testing.T) {
	lowerLimit(t, &maxBodyBytes, 1<<20)
	srv, _, reg := v2Server(t, ServiceConfig{})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	reg.Deploy(registry.Target{Scenario: "backup", Region: "broken"}, "no-such-model", "")

	good := FromSeries(weekHistory())
	// A structurally valid request whose JSON alone exceeds the 1 MiB body
	// limit: the decoder must hit the MaxBytesReader mid-array.
	oversized := `{"scenario":"backup","region":"r","horizon":288,"history":{"start":"2019-12-01T00:00:00Z","interval_min":5,"values":[` +
		strings.Repeat("0,", 700000) + `0]}}`

	post := func(path, body string) (int, ErrorBody) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error
	}
	mustJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   ErrorCode
	}{
		{"malformed json", "/v2/predict", "{not json", http.StatusBadRequest, CodeBadRequest},
		{"zero horizon", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "r", History: good, Horizon: 0,
		}), http.StatusBadRequest, CodeBadRequest},
		{"window beyond horizon", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "r", History: good, Horizon: 12, WindowPoints: 24,
		}), http.StatusBadRequest, CodeBadRequest},
		{"no deployment", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "nowhere", History: good, Horizon: 288,
		}), http.StatusNotFound, CodeNotFound},
		{"short history", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "r",
			History: SeriesJSON{Start: t0, IntervalMin: 5, Values: []float64{1}}, Horizon: 288,
		}), http.StatusUnprocessableEntity, CodeUntrainable},
		{"zero interval", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "r",
			History: SeriesJSON{Start: t0, IntervalMin: 0, Values: []float64{1}}, Horizon: 10,
		}), http.StatusBadRequest, CodeBadRequest},
		{"horizon one past the cap", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "r", History: good, Horizon: maxHorizon + 1,
		}), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"unknown deployed model", "/v2/predict", mustJSON(PredictRequestV2{
			Scenario: "backup", Region: "broken", History: good, Horizon: 288,
		}), http.StatusInternalServerError, CodeInternal},
		{"batch beyond limit", "/v2/predict/batch", mustJSON(BatchRequest{
			Scenario: "backup", Region: "r",
			Servers: make([]BatchItem, MaxBatch+1),
		}), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"empty batch", "/v2/predict/batch", mustJSON(BatchRequest{
			Scenario: "backup", Region: "r",
		}), http.StatusBadRequest, CodeBadRequest},
		{"oversized body", "/v2/predict", oversized,
			http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"advise bad window", "/v2/advise", mustJSON(AdviseRequest{
			PredictedDay: good, CustomerStart: 0, WindowPoints: 0,
		}), http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		status, errBody := post(tc.path, tc.body)
		if status != tc.status || errBody.Code != tc.code {
			t.Errorf("%s: got %d %q (%q), want %d %q",
				tc.name, status, errBody.Code, errBody.Message, tc.status, tc.code)
		}
		if errBody.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestAdviseEndpoint(t *testing.T) {
	srv, _, _ := v2Server(t, ServiceConfig{})
	c := NewClient(srv.URL)
	day, _ := weekHistory().Day(6)

	resp, err := c.Advise(context.Background(), AdviseRequest{
		PredictedDay: FromSeries(day), CustomerStart: 150, WindowPoints: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ll, _ := metrics.LowestLoadWindow(day, 12)
	if resp.SuggestedStart != ll.Start || resp.SuggestedAvg != ll.AvgLoad {
		t.Errorf("resp = %+v, ll = %+v", resp, ll)
	}
	// The 150 start sits mid-plateau at 60 load, far outside the +10/−5
	// bound of the 10-load optimum: the advice must be to move.
	if resp.KeepCurrent {
		t.Errorf("resp = %+v: a peak-load window should not be kept", resp)
	}
}

func TestPredictionsEndpoint(t *testing.T) {
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("predictions")
	for week := 0; week < 2; week++ {
		doc := pipeline.PredictionDoc{
			ServerID: "srv-1", Region: "westus", Week: week,
			Model: forecast.NamePersistentPrevDay, IntervalMin: 5,
			Values: []float64{1, 2, 3}, LLStart: 1, LLAvg: 2,
		}
		id := docIDForTest(doc.ServerID, week)
		if err := col.Upsert("westus", id, &doc); err != nil {
			t.Fatal(err)
		}
	}
	reg := registry.New(nil)
	srv := httptest.NewServer(NewService(reg, db, ServiceConfig{}))
	defer srv.Close()
	c := NewClient(srv.URL)

	resp, err := c.Predictions(context.Background(), "westus", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 1 || resp.Predictions[0].Week != 1 || resp.Predictions[0].ServerID != "srv-1" {
		t.Fatalf("resp = %+v", resp)
	}
	// Unknown region → empty list, not an error.
	empty, err := c.Predictions(context.Background(), "nowhere", 0)
	if err != nil || len(empty.Predictions) != 0 {
		t.Errorf("empty = %+v, err = %v", empty, err)
	}
	// A service without a document store reports not_found.
	srvNoDB := httptest.NewServer(NewService(registry.New(nil), nil, ServiceConfig{}))
	defer srvNoDB.Close()
	_, err = NewClient(srvNoDB.URL).Predictions(context.Background(), "westus", 1)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Code != CodeNotFound {
		t.Errorf("err = %v, want %s", err, CodeNotFound)
	}
}

// docIDForTest mirrors the pipeline's prediction document id scheme.
func docIDForTest(serverID string, week int) string {
	return fmt.Sprintf("%s/week-%04d", serverID, week)
}

// TestBatchWorkersRePoolInFull: the default per-slot idle bound must cover
// the batch fan-out width, or every batch on a many-core host would discard
// most of the trained instances it checks out.
func TestBatchWorkersRePoolInFull(t *testing.T) {
	reg := registry.New(nil)
	svc := NewService(reg, nil, ServiceConfig{Workers: 8})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	good := FromSeries(weekHistory())
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{ServerID: "s", History: good, Horizon: 288}
	}
	resp, serr := svc.PredictBatch(context.Background(), BatchRequest{
		Scenario: "backup", Region: "r", Servers: items,
	})
	if serr != nil || resp.Failed != 0 {
		t.Fatalf("batch: %+v %v", resp, serr)
	}
	st := svc.Pool().Stats()
	if st.Idle != 8 {
		t.Errorf("idle = %d, want all 8 worker instances re-pooled (stats %+v)", st.Idle, st)
	}
}

// TestServiceCloseDetachesWatcher: a closed service's pool must stop
// receiving registry invalidations, while a live service on the same
// registry keeps receiving them.
func TestServiceCloseDetachesWatcher(t *testing.T) {
	reg := registry.New(nil)
	target := registry.Target{Scenario: "backup", Region: "r"}
	retired := NewService(reg, nil, ServiceConfig{})
	live := NewService(reg, nil, ServiceConfig{})
	retired.Close()
	reg.Deploy(target, forecast.NamePersistentPrevDay, "")
	if st := retired.Pool().Stats(); st.Invalidations != 0 {
		t.Errorf("closed service still receives invalidations: %+v", st)
	}
	if st := live.Pool().Stats(); st.Invalidations == 0 {
		t.Errorf("live service missed the invalidation: %+v", st)
	}
}

func TestReadiness(t *testing.T) {
	srv, svc, _ := v2Server(t, ServiceConfig{})
	c := NewClient(srv.URL)
	ctx := context.Background()
	if !c.Ready(ctx) {
		t.Error("fresh service must be ready")
	}
	svc.SetReady(false)
	if c.Ready(ctx) {
		t.Error("draining service must not be ready")
	}
	if !c.Healthy() {
		t.Error("draining service must stay live")
	}
}

func TestRequestDeadline(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	defer close(release)
	reg := registry.New(nil)
	svc := NewService(reg, nil, ServiceConfig{
		Timeout: 30 * time.Millisecond,
		Pool: modelpool.Config{NewModel: func(name string, seed int64) (forecast.Model, error) {
			inner, err := forecast.New(name, seed)
			if err != nil {
				return nil, err
			}
			return &blockingModel{Model: inner, started: started, release: release}, nil
		}},
	})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	srv := httptest.NewServer(svc)
	defer srv.Close()

	go func() {
		<-started
		// Hold Train well past the 30ms service deadline.
		time.Sleep(60 * time.Millisecond)
		release <- struct{}{}
	}()
	body, _ := json.Marshal(PredictRequestV2{
		Scenario: "backup", Region: "r", History: FromSeries(weekHistory()), Horizon: 288,
	})
	resp, err := http.Post(srv.URL+"/v2/predict", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != CodeDeadline {
		t.Errorf("got %d %q, want %d %q", resp.StatusCode, env.Error.Code,
			http.StatusGatewayTimeout, CodeDeadline)
	}
}
