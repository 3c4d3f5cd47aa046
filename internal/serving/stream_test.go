package serving

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/forecast"
	"seagull/internal/modelpool"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/stream"
)

// newTestHTTPServer serves svc on an ephemeral port and returns its URL.
func newTestHTTPServer(t *testing.T, svc *Service) string {
	t.Helper()
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv.URL
}

func timeUnixStr(t time.Time) string { return strconv.FormatInt(t.Unix(), 10) }

// streamServer wires a service with the full stream stack attached: an
// ingestor, a drift detector over db, and a refresher training through a
// warm pool of its own.
func streamServer(t *testing.T) (*Client, *Service, *registry.Registry, *cosmos.DB, *stream.Ingestor) {
	t.Helper()
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(nil)
	epoch := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	ing := stream.NewIngestor(stream.Config{Epoch: epoch})
	det := stream.NewDriftDetector(ing, db)
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	t.Cleanup(pool.Bind(reg))
	ref := stream.NewRefresher(ing, db, reg, pool, stream.RefreshConfig{})
	svc := NewService(reg, db, ServiceConfig{Ingestor: ing, Drift: det, Refresher: ref})
	srv := newTestHTTPServer(t, svc)
	return NewClient(srv), svc, reg, db, ing
}

// TestIngestEndToEnd drives the full loop over HTTP: ingest live telemetry,
// sweep for drift against a stored prediction, queue the drifted server,
// refresh it through the warm pool, and observe the counters on /varz.
func TestIngestEndToEnd(t *testing.T) {
	c, svc, reg, db, ing := streamServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	ctx := context.Background()
	epoch := ing.Epoch()
	day := epoch.Add(7 * 24 * time.Hour)

	// A stored prediction of flat 20 for the backup day.
	vals := make([]float64, 288)
	for i := range vals {
		vals[i] = 20
	}
	doc := &pipeline.PredictionDoc{
		ServerID: "srv", Region: "r", Week: 1, Model: forecast.NamePersistentPrevDay,
		BackupDay: day, WindowPoints: 12, IntervalMin: 5, Values: vals,
	}
	if err := db.Collection("predictions").Upsert("r", "srv/week-0001", doc); err != nil {
		t.Fatal(err)
	}

	// Seven days of history plus a backup day running 40 points hot: the
	// prediction has drifted. One value is negative (missing per the lake
	// convention) and the last chunk is re-sent to prove idempotence.
	hist := make([]float64, 8*288)
	for i := range hist {
		if i < 7*288 {
			hist[i] = 25
		} else {
			hist[i] = 60
		}
	}
	hist[3] = -1
	resp, err := c.Ingest(ctx, IngestRequest{Servers: []IngestSeries{
		{ServerID: "srv", Start: epoch, IntervalMin: 5, Values: hist},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(hist)-1 || resp.Skipped != 1 {
		t.Fatalf("ingest = %+v", resp)
	}
	replay, err := c.Ingest(ctx, IngestRequest{Servers: []IngestSeries{
		{ServerID: "srv", Start: day, IntervalMin: 5, Values: hist[7*288:]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Duplicates != 288 || replay.Accepted != 0 {
		t.Fatalf("replay = %+v, want all duplicates", replay)
	}

	// Sweep week 1: srv drifted (actuals 60 vs predicted 20) and queues.
	resp, err = c.Ingest(ctx, IngestRequest{
		Points: []IngestPoint{{ServerID: "other", TimeUnix: day.Unix(), Value: 30}},
		Sweep:  &SweepSpec{Region: "r", Week: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || resp.Sweep == nil {
		t.Fatalf("sweep ingest = %+v", resp)
	}
	if resp.Sweep.Drifted != 1 || resp.Sweep.Queued != 1 || resp.Sweep.Servers[0] != "srv" {
		t.Fatalf("sweep = %+v", resp.Sweep)
	}

	// Drain the refresh queue: the stored doc must now carry the live-based
	// forecast (pf-prev-day → previous live day = 60s).
	if err := svc.cfg.Refresher.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var got pipeline.PredictionDoc
	if err := db.Collection("predictions").Get("r", "srv/week-0001", &got); err != nil {
		t.Fatal(err)
	}
	if got.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", got.Refreshes)
	}
	if got.Values[0] != 25 {
		t.Fatalf("refreshed forecast v0 = %v, want the live previous-day 25", got.Values[0])
	}

	// /varz surfaces the whole story.
	vz, err := c.Varz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vz.Ingest == nil || vz.Ingest.Appended == 0 || vz.Ingest.Duplicates == 0 {
		t.Fatalf("varz ingest = %+v", vz.Ingest)
	}
	if vz.Drift == nil || vz.Drift.Sweeps != 1 || vz.Drift.Drifted != 1 {
		t.Fatalf("varz drift = %+v", vz.Drift)
	}
	if vz.Refresh == nil || vz.Refresh.Refreshed != 1 {
		t.Fatalf("varz refresh = %+v", vz.Refresh)
	}
	ep, ok := vz.Endpoints["POST /v2/ingest"]
	if !ok || ep.Count != 3 {
		t.Fatalf("varz ingest endpoint = %+v (ok=%v)", ep, ok)
	}
}

func TestIngestValidation(t *testing.T) {
	c, _, _, _, ing := streamServer(t)
	ctx := context.Background()
	epoch := ing.Epoch()

	cases := []struct {
		name string
		req  IngestRequest
		code ErrorCode
	}{
		{"empty", IngestRequest{}, CodeBadRequest},
		{"no id", IngestRequest{Servers: []IngestSeries{{IntervalMin: 5, Start: epoch, Values: []float64{1}}}}, CodeBadRequest},
		{"bad interval", IngestRequest{Servers: []IngestSeries{{ServerID: "s", IntervalMin: 15, Start: epoch, Values: []float64{1}}}}, CodeBadRequest},
		{"point no id", IngestRequest{Points: []IngestPoint{{TimeUnix: epoch.Unix(), Value: 1}}}, CodeBadRequest},
	}
	for _, tc := range cases {
		_, err := c.Ingest(ctx, tc.req)
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Code != tc.code {
			t.Errorf("%s: err = %v, want code %s", tc.name, err, tc.code)
		}
	}

	// Negative values split a series into runs: each counts as skipped, and
	// the runs around it keep their slots.
	slot := 5 * time.Minute
	resp, err := c.Ingest(ctx, IngestRequest{Servers: []IngestSeries{
		{ServerID: "runs", Start: epoch.Add(-2 * slot), IntervalMin: 5, Values: []float64{1, -1, 2, 3}},
		{ServerID: "runs", Start: epoch, IntervalMin: 5, Values: []float64{-3, 4, 5, -4, -5, 6}},
	}})
	want := IngestResponse{Accepted: 4, Duplicates: 1, TooOld: 1, Skipped: 4}
	if err != nil || resp != want {
		t.Errorf("split series: %+v, %v; want %+v", resp, err, want)
	}
	if live, ok := ing.View("runs"); !ok || !live.Start.Equal(epoch) || fmt.Sprint(live.Values) != "[2 3 5 NaN NaN 6]" {
		t.Errorf("split series left %v from %v", live.Values, live.Start)
	}

	// Over the point limit → too_large.
	lowerLimit(t, &maxIngestPoints, 1024)
	big := IngestRequest{Servers: []IngestSeries{{ServerID: "s", IntervalMin: 5, Start: epoch, Values: make([]float64, 2048)}}}
	if _, err := c.Ingest(ctx, big); !hasCode(err, CodeTooLarge) {
		t.Errorf("oversized ingest: %v", err)
	}

	// Sweep without a drift detector attached.
	db, _ := cosmos.Open("")
	reg := registry.New(nil)
	svcNoDrift := NewService(reg, db, ServiceConfig{Ingestor: stream.NewIngestor(stream.Config{})})
	cNoDrift := NewClient(newTestHTTPServer(t, svcNoDrift))
	_, err = cNoDrift.Ingest(ctx, IngestRequest{
		Points: []IngestPoint{{ServerID: "s", TimeUnix: time.Now().Unix(), Value: 1}},
		Sweep:  &SweepSpec{Region: "r", Week: 0},
	})
	if !hasCode(err, CodeNotFound) {
		t.Errorf("sweep without detector: %v", err)
	}

	// No ingestor at all → not_found.
	svcBare := NewService(registry.New(nil), nil, ServiceConfig{})
	cBare := NewClient(newTestHTTPServer(t, svcBare))
	_, err = cBare.Ingest(ctx, IngestRequest{Points: []IngestPoint{{ServerID: "s", TimeUnix: 0, Value: 1}}})
	if !hasCode(err, CodeNotFound) {
		t.Errorf("ingest without ingestor: %v", err)
	}
}

// hasCode reports whether err is an APIError with the given code.
func hasCode(err error, code ErrorCode) bool {
	apiErr, ok := err.(*APIError)
	return ok && apiErr.Code == code
}

// TestPredictLiveHistory: a predict sourcing its history from the ingestor's
// live window returns the same response as one carrying the identical
// history explicitly — clients that stream telemetry need not re-upload it.
func TestPredictLiveHistory(t *testing.T) {
	c, _, reg, _, ing := streamServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	ctx := context.Background()
	epoch := ing.Epoch()

	hist := make([]float64, 2*288)
	for i := range hist {
		hist[i] = float64(10 + i%7)
	}
	if _, err := c.Ingest(ctx, IngestRequest{Servers: []IngestSeries{
		{ServerID: "srv", Start: epoch, IntervalMin: 5, Values: hist},
	}}); err != nil {
		t.Fatal(err)
	}

	live, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv",
		LiveHistory: true, Horizon: 288, WindowPoints: 12,
	})
	if err != nil {
		t.Fatalf("live-history predict: %v", err)
	}
	explicit, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv",
		History: SeriesJSON{Start: epoch, IntervalMin: 5, Values: hist},
		Horizon: 288, WindowPoints: 12,
	})
	if err != nil {
		t.Fatalf("explicit predict: %v", err)
	}
	if len(live.Forecast.Values) != len(explicit.Forecast.Values) {
		t.Fatalf("forecast lengths %d vs %d", len(live.Forecast.Values), len(explicit.Forecast.Values))
	}
	for i := range live.Forecast.Values {
		if live.Forecast.Values[i] != explicit.Forecast.Values[i] {
			t.Fatalf("forecast[%d] = %v vs %v", i, live.Forecast.Values[i], explicit.Forecast.Values[i])
		}
	}
	if live.LLStart != explicit.LLStart || live.LLAvg != explicit.LLAvg {
		t.Fatalf("LL window (%d, %v) vs (%d, %v)", live.LLStart, live.LLAvg, explicit.LLStart, explicit.LLAvg)
	}

	// Validation: unknown server, missing server_id, both histories at once,
	// and a service without an ingestor.
	if _, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "ghost", LiveHistory: true, Horizon: 288,
	}); !hasCode(err, CodeNotFound) {
		t.Errorf("unknown server: %v", err)
	}
	if _, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", LiveHistory: true, Horizon: 288,
	}); !hasCode(err, CodeBadRequest) {
		t.Errorf("missing server_id: %v", err)
	}
	if _, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv", LiveHistory: true,
		History: SeriesJSON{Start: epoch, IntervalMin: 5, Values: hist}, Horizon: 288,
	}); !hasCode(err, CodeBadRequest) {
		t.Errorf("both histories: %v", err)
	}
	reg2 := registry.New(nil)
	reg2.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	cBare := NewClient(newTestHTTPServer(t, NewService(reg2, nil, ServiceConfig{})))
	if _, err := cBare.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv", LiveHistory: true, Horizon: 288,
	}); !hasCode(err, CodeNotFound) {
		t.Errorf("no ingestor: %v", err)
	}
}

// TestVarzSweeper: an attached background sweeper surfaces its counters on
// /varz.
func TestVarzSweeper(t *testing.T) {
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(nil)
	ing := stream.NewIngestor(stream.Config{})
	det := stream.NewDriftDetector(ing, db)
	sw := stream.NewSweeper(db, det, nil, stream.SweeperConfig{})
	svc := NewService(reg, db, ServiceConfig{Ingestor: ing, Drift: det, Sweeper: sw})
	c := NewClient(newTestHTTPServer(t, svc))

	if err := sw.SweepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	vz, err := c.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Sweeper == nil || vz.Sweeper.Ticks != 1 {
		t.Fatalf("varz sweeper = %+v, want one tick", vz.Sweeper)
	}
}

// TestIngestRaw exercises the wire shape directly (field names are a
// compatibility surface).
func TestIngestRaw(t *testing.T) {
	c, _, _, _, ing := streamServer(t)
	body := `{"points":[{"server_id":"s","t_unix":` +
		// a point one week past the epoch
		timeUnixStr(ing.Epoch().Add(7*24*time.Hour)) + `,"v":12.5}]}`
	resp, err := http.Post(c.BaseURL+"/v2/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw ingest status = %d", resp.StatusCode)
	}
	if st := ing.Stats(); st.Appended != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
