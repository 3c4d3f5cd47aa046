package simworkload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeScenario returns the built-in smoke scenario, shortened for tests.
func smokeScenario(t *testing.T) Scenario {
	t.Helper()
	sc, ok := Builtin("smoke")
	if !ok {
		t.Fatal("smoke scenario missing")
	}
	return sc
}

// TestRunSmokeDeterministic is the tentpole invariant: two runs of the same
// scenario and seed produce bit-identical timeline CSVs, even though the
// serving side does real concurrent HTTP over loopback.
func TestRunSmokeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	sc := smokeScenario(t)
	opts := Options{Hours: 4}

	out1, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.CSV, out2.CSV) {
		t.Fatalf("timelines differ across runs of the same scenario+seed:\n--- run 1\n%s\n--- run 2\n%s", out1.CSV, out2.CSV)
	}

	// A different seed must actually change the workload.
	out3, err := Run(context.Background(), sc, Options{Hours: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out1.CSV, out3.CSV) {
		t.Fatal("different seeds produced identical timelines")
	}

	// The run did real work on every layer.
	rep := out1.Report
	if rep.Ingest.Appended == 0 {
		t.Fatal("no live telemetry ingested")
	}
	if rep.Predicts.Issued == 0 || rep.Predicts.OK == 0 {
		t.Fatalf("predict traffic did not flow: %+v", rep.Predicts)
	}
	if rep.Sweeper.Ticks == 0 {
		t.Fatal("background sweeps never ran")
	}
	if rep.Durability.Commits == 0 || rep.Durability.CommitRecords == 0 {
		t.Fatalf("WAL never committed: %+v", rep.Durability)
	}
	if len(rep.DriftLag) != 1 {
		t.Fatalf("drift lag entries = %d, want 1", len(rep.DriftLag))
	}
	if lag := rep.DriftLag[0].LagHours; lag < 0 || lag > 1.5 {
		t.Fatalf("injected drift detected after %.2fh, want within 1.5h (sweep cadence 0.5h)", lag)
	}
	if rep.Sweeper.Drifted == 0 || rep.Refresh.Refreshed == 0 {
		t.Fatalf("drift loop idle: sweeper %+v refresh %+v", rep.Sweeper, rep.Refresh)
	}

	// Timeline rows are cumulative and end at the replay horizon.
	rows := out1.Rows
	if len(rows) < 4 {
		t.Fatalf("rows = %d, want one per simulated hour plus the origin", len(rows))
	}
	if rows[0].SimHours != 0 || rows[len(rows)-1].SimHours != 4 {
		t.Fatalf("row span [%v, %v], want [0, 4]", rows[0].SimHours, rows[len(rows)-1].SimHours)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Appended < rows[i-1].Appended || rows[i].PredictsIssued < rows[i-1].PredictsIssued {
			t.Fatalf("counters regressed between rows %d and %d", i-1, i)
		}
	}
}

// TestRunCancelStopsCleanly: cancelling mid-replay returns ctx.Err() promptly
// with the partial timeline, and the deferred teardown (serving listener,
// durability, pool binding) does not hang.
func TestRunCancelStopsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	sc := smokeScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the replay loop: the first hourly progress line
	// proves the live phase is underway.
	logf := func(format string, args ...any) {
		if strings.HasPrefix(format, "sim ") {
			cancel()
		}
	}
	out, err := Run(ctx, sc, Options{Hours: 6, Logf: logf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if out == nil || len(out.Rows) == 0 {
		t.Fatal("cancelled run returned no partial timeline")
	}
	if last := out.Rows[len(out.Rows)-1].SimHours; last >= 6 {
		t.Fatalf("cancelled run completed the full horizon (%vh)", last)
	}
}

// TestScenarioValidate rejects the configs the harness cannot run.
func TestScenarioValidate(t *testing.T) {
	base := Scenario{
		Name:         "t",
		Regions:      []RegionSpec{{Name: "r", Servers: 4}},
		HistoryWeeks: 2,
		Hours:        1,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []func(*Scenario){
		func(s *Scenario) { s.Regions = nil },
		func(s *Scenario) { s.Regions = []RegionSpec{{Name: "", Servers: 4}} },
		func(s *Scenario) { s.HistoryWeeks = 1 },
		func(s *Scenario) { s.Hours = 0 },
		func(s *Scenario) { s.Events = []Event{{Type: "quake"}} },
		func(s *Scenario) { s.Events = []Event{{Type: EventBurstStorm}} },
		func(s *Scenario) { s.Events = []Event{{Type: EventDrift}} },
		func(s *Scenario) { s.Events = []Event{{Type: EventFailover, Magnitude: 2}} },
		func(s *Scenario) { s.Events = []Event{{Type: EventMaintenance, AtHour: -1}} },
		func(s *Scenario) { s.Events = []Event{{Type: EventMaintenance, Fraction: 1.5}} },
	}
	for i, mutate := range bad {
		sc := base
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d passed validation", i)
		}
	}
}

// TestLoadScenarioRoundTrip: a scenario serialized to JSON loads back equal,
// a file with a key the Scenario does not define or with data after the
// object fails, and the built-ins all validate.
func TestLoadScenarioRoundTrip(t *testing.T) {
	sc, _ := Builtin("burst-drift-36h")
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(sc)
	round, _ := json.Marshal(got)
	if !bytes.Equal(want, round) {
		t.Fatalf("round trip changed the scenario:\nwant %s\ngot  %s", want, round)
	}

	for _, name := range BuiltinNames() {
		sc, ok := Builtin(name)
		if !ok {
			t.Fatalf("BuiltinNames lists %q but Builtin does not know it", name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in %q invalid: %v", name, err)
		}
	}
	if _, ok := Builtin("no-such"); ok {
		t.Fatal("unknown builtin resolved")
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	stale := bytes.Replace(data, []byte(`"seed"`), []byte(`"max_inflight": 16, "seed"`), 1)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(path); err == nil || !strings.Contains(err.Error(), "max_inflight") {
		t.Fatalf("a file setting max_inflight loaded: %v", err)
	}
	if err := os.WriteFile(path, append(data, " {}"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(path); err == nil {
		t.Fatal("a file with data after the scenario loaded")
	}
}

// TestEventShaping pins the event helpers' semantics: activation windows,
// affected-set sizing, and the diurnal shape's bounds.
func TestEventShaping(t *testing.T) {
	e := Event{Type: EventDrift, AtHour: 2, DurationHours: 3}
	for h, want := range map[float64]bool{0: false, 1.99: false, 2: true, 4.99: true, 5: false} {
		if got := e.active(h); got != want {
			t.Errorf("active(%v) = %v, want %v", h, got, want)
		}
	}
	persistent := Event{Type: EventDrift, AtHour: 2}
	if !persistent.active(1000) {
		t.Error("zero-duration event should persist to the end")
	}

	if got := affectedCount(Event{Fraction: 0.25}, 24); got != 6 {
		t.Errorf("affectedCount(0.25, 24) = %d, want 6", got)
	}
	if got := affectedCount(Event{Fraction: 0}, 10); got != 10 {
		t.Errorf("affectedCount(0, 10) = %d, want all", got)
	}
	if got := affectedCount(Event{Fraction: 0.01}, 10); got != 1 {
		t.Errorf("affectedCount(0.01, 10) = %d, want at least 1", got)
	}
	if !eventHits(Event{}, "anywhere") || eventHits(Event{Region: "east"}, "west") {
		t.Error("eventHits region filter wrong")
	}

	for h := 0; h < 24*7; h++ {
		f := trafficShape(time.Date(2020, 1, 5, h%24, 0, 0, 0, time.UTC).AddDate(0, 0, h/24))
		if f < 0.4 || f > 1.4 {
			t.Fatalf("trafficShape out of bounds at hour %d: %v", h, f)
		}
	}
}

// TestRunShardedDeterministic pins the scale-out topology: the sharded-12h
// scenario (4 consistent-hash replicas behind the router) replays
// deterministically — two runs produce bit-identical timeline CSVs — and the
// work is genuinely spread across the replica fleet.
func TestRunShardedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	sc, ok := Builtin("sharded-12h")
	if !ok {
		t.Fatal("sharded-12h scenario missing")
	}
	opts := Options{Hours: 4}

	out1, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Run(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.CSV, out2.CSV) {
		t.Fatalf("sharded timelines differ across runs of the same scenario+seed:\n--- run 1\n%s\n--- run 2\n%s", out1.CSV, out2.CSV)
	}

	rep := out1.Report
	if rep.Replicas != 4 {
		t.Fatalf("report replicas = %d, want 4", rep.Replicas)
	}
	if rep.Ingest.Appended == 0 || rep.Ingest.Servers == 0 {
		t.Fatalf("no telemetry flowed through the fleet: %+v", rep.Ingest)
	}
	if rep.Predicts.Issued == 0 || rep.Predicts.OK == 0 {
		t.Fatalf("predict traffic did not flow through the router: %+v", rep.Predicts)
	}
	if rep.Predicts.Failed > 0 {
		t.Fatalf("routed predicts failed: %+v", rep.Predicts)
	}
	if rep.Durability.Commits == 0 {
		t.Fatalf("replica WALs never committed: %+v", rep.Durability)
	}
	// Nearly the whole fleet must hold live rings (short-lived servers may
	// retire before the replay window; everyone else streams every slot).
	if rep.Ingest.Servers < 48 {
		t.Fatalf("fleet ingest servers = %d, want ≥ 48 of 64", rep.Ingest.Servers)
	}

	// The same scenario collapsed to one replica must still be a valid run
	// (and a different timeline shape is fine — topology changes sweeps).
	sc.Replicas = 1
	if _, err := Run(context.Background(), sc, Options{Hours: 1}); err != nil {
		t.Fatalf("single-replica collapse of the sharded scenario failed: %v", err)
	}
}
