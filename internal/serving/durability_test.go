package serving

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/forecast"
	"seagull/internal/lake"
	"seagull/internal/registry"
	"seagull/internal/stream"
)

// TestReadyDegraded: a degraded service keeps serving (200) but reports the
// state honestly on /readyz and /varz instead of pretending full health.
func TestReadyDegraded(t *testing.T) {
	c, svc, _, _, _ := streamServer(t)
	svc.SetDegraded("degraded: live window cold-started")

	resp, err := http.Get(c.BaseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (degraded still serves)", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "degraded" || body["reason"] == "" {
		t.Fatalf("/readyz body = %v, want degraded with a reason", body)
	}

	vz, err := c.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Degraded != "degraded: live window cold-started" {
		t.Fatalf("varz degraded = %q", vz.Degraded)
	}

	// Clearing restores the ready verdict, and draining still outranks it.
	svc.SetDegraded("")
	if vz, err = c.Varz(context.Background()); err != nil || vz.Degraded != "" {
		t.Fatalf("after clear: degraded = %q (err %v)", vz.Degraded, err)
	}
	if !c.Ready(context.Background()) {
		t.Fatal("cleared service not ready")
	}
	svc.SetDegraded("degraded: live window cold-started")
	svc.SetReady(false)
	if c.Ready(context.Background()) {
		t.Fatal("draining service reported ready")
	}
}

// TestPredictLiveHistoryInsufficient: a thin live window (the cold-start
// symptom) fails with a structured insufficient_history error rather than a
// silently worse forecast; a full window predicts normally.
func TestPredictLiveHistoryInsufficient(t *testing.T) {
	c, _, reg, _, ing := streamServer(t)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	ctx := context.Background()

	// 100 points is well under the default one-day (288-point) floor.
	thin := make([]float64, 100)
	for i := range thin {
		thin[i] = float64(10 + i%5)
	}
	if _, err := c.Ingest(ctx, IngestRequest{Servers: []IngestSeries{
		{ServerID: "srv-thin", Start: ing.Epoch(), IntervalMin: 5, Values: thin},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.PredictV2(ctx, PredictRequestV2{
		Scenario: "backup", Region: "r", ServerID: "srv-thin",
		LiveHistory: true, Horizon: 288,
	})
	if !hasCode(err, CodeInsufficientHistory) {
		t.Fatalf("thin-window predict err = %v, want %s", err, CodeInsufficientHistory)
	}
	apiErr := err.(*APIError)
	if apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", apiErr.Status)
	}
}

// TestPredictLiveHistoryFloorConfig: the floor is exactly one day of
// observations at the ingestor's interval.
func TestPredictLiveHistoryFloorConfig(t *testing.T) {
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(nil)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
	ing := stream.NewIngestor(stream.Config{Epoch: time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)})
	day := int(24 * time.Hour / ing.Interval())
	vals := make([]float64, day-1)
	for i := range vals {
		vals[i] = float64(i % 9)
	}
	if _, err := ing.AppendSeries("srv", ing.Epoch(), vals); err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg, db, ServiceConfig{Ingestor: ing})
	req := PredictRequestV2{Scenario: "backup", Region: "r", ServerID: "srv", LiveHistory: true, Horizon: 10}

	if _, serr := svc.Predict(context.Background(), req); serr == nil || serr.Code != CodeInsufficientHistory {
		t.Fatalf("one point short of a day: err = %v, want insufficient_history", serr)
	}
	ing.Append("srv", ing.Epoch().Add(time.Duration(day-1)*ing.Interval()), 1)
	if _, serr := svc.Predict(context.Background(), req); serr != nil {
		t.Fatalf("a full day: err = %v, want success", serr)
	}
}

// TestVarzDurability: an attached Durability surfaces its WAL and snapshot
// counters on /varz.
func TestVarzDurability(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db, err2 := cosmos.Open("")
	if err2 != nil {
		t.Fatal(err2)
	}
	reg := registry.New(nil)
	ing := stream.NewIngestor(stream.Config{})
	dur := stream.NewDurability(ing, store, stream.DurabilityConfig{SnapshotEvery: -1, CommitEvery: time.Hour})
	if _, err := dur.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Open(); err != nil {
		t.Fatal(err)
	}
	defer dur.Close()

	svc := NewService(reg, db, ServiceConfig{Ingestor: ing, Durability: dur})
	c := NewClient(newTestHTTPServer(t, svc))

	ing.Append("srv", time.Now().Add(-time.Hour), 5)
	if err := dur.CommitNow(); err != nil {
		t.Fatal(err)
	}
	vz, err := c.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Durability == nil || !vz.Durability.WAL || vz.Durability.CommitRecords != 1 {
		t.Fatalf("varz durability = %+v, want one committed record", vz.Durability)
	}
	if vz.Durability.Recovered == nil {
		t.Fatal("varz durability missing the boot recovery outcome")
	}
}

// TestIngestRefusedWhenWALCannotFlush: a point whose shard buffer is full and
// whose log refuses writes is not acknowledged — /v2/ingest answers 503
// overloaded with Retry-After, and /varz counts the refusal.
func TestIngestRefusedWhenWALCannotFlush(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := lake.NewFaultStore(base)
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ing := stream.NewIngestor(stream.Config{Epoch: time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)})
	dur := stream.NewDurability(ing, store, stream.DurabilityConfig{
		SnapshotEvery: -1, CommitEvery: time.Hour, BufferEntries: 4,
	})
	if err := dur.Open(); err != nil {
		t.Fatal(err)
	}
	logs, err := store.ListObjects(stream.WALPrefix)
	if err != nil || len(logs) == 0 {
		t.Fatalf("shard logs = %v, %v", logs, err)
	}
	for _, name := range logs {
		store.Arm(lake.FaultRule{Name: name, Op: lake.FaultAppend})
	}
	svc := NewService(registry.New(nil), db, ServiceConfig{Ingestor: ing, Durability: dur})
	srv := newTestHTTPServer(t, svc)

	body := `{"servers":[{"server_id":"srv","start":"2019-12-01T00:00:00Z","interval_min":5,"values":[1,2,3,4,5,6]}]}`
	resp, err := http.Post(srv+"/v2/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeOverloaded || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("got %d %+v Retry-After=%q, want 503 overloaded with Retry-After",
			resp.StatusCode, env.Error, resp.Header.Get("Retry-After"))
	}
	if st := dur.Stats(); st.Dropped != 1 {
		t.Fatalf("durability stats = %+v, want the one refused point", st)
	}
	if st := ing.Stats(); st.Appended != 4 {
		t.Fatalf("ingest stats = %+v, want the four buffered points applied and nothing after", st)
	}
}
