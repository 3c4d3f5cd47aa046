package seagull

import (
	"context"
	"net/http/httptest"
	"os"
	"testing"

	"seagull/internal/registry"
	"seagull/internal/serving"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	fleet := GenerateFleet(FleetConfig{Region: "e2e", Servers: 60, Weeks: 4, Seed: 5})
	rows, err := sys.LoadFleet(fleet)
	if err != nil || rows == 0 {
		t.Fatalf("LoadFleet rows=%d err=%v", rows, err)
	}

	res, err := sys.RunWeeks("e2e", 0, 3, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Week != 3 || res.Summary.Servers == 0 {
		t.Fatalf("final result = %+v", res)
	}
	if res.Summary.PctCorrect < 0.85 {
		t.Errorf("LL correct = %.3f", res.Summary.PctCorrect)
	}

	decisions, err := sys.ScheduleBackups("e2e", 3)
	if err != nil || len(decisions) == 0 {
		t.Fatalf("decisions=%d err=%v", len(decisions), err)
	}
	if sys.Fabric.Len() != len(decisions) {
		t.Errorf("fabric has %d props for %d decisions", sys.Fabric.Len(), len(decisions))
	}

	im, err := EvaluateImpact(decisions, FleetTrueDay(fleet), DefaultMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if im.Decisions == 0 {
		t.Fatalf("impact = %+v", im)
	}

	// Dashboard has the four runs.
	sum := sys.DashboardSummary()
	if sum.Runs != 4 || sum.Succeeded != 4 {
		t.Errorf("dashboard = %+v", sum)
	}
}

func TestSystemTempDirLifecycle(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := sys.DataDir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("data dir missing: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("owned temp dir should be removed on Close")
	}
}

func TestSystemServingHandler(t *testing.T) {
	sys := newTestSystem(t)
	// Deploy a model directly and serve it.
	sys.Registry.Deploy(registry.Target{Scenario: "backup", Region: "api"}, ModelPersistentPrevDay, "")
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()

	client := serving.NewClient(srv.URL)
	if !client.Healthy() {
		t.Fatal("endpoint unhealthy")
	}
	fleet := GenerateFleet(FleetConfig{Region: "api", Servers: 1, Weeks: 1, Seed: 2,
		Mix: Mix{Stable: 1}})
	hist := fleet.Servers[0].Load()
	resp, err := client.PredictV2(context.Background(), serving.PredictRequestV2{
		Scenario: "backup", Region: "api", History: serving.FromSeries(hist), Horizon: 288,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != ModelPersistentPrevDay || len(resp.Forecast.Values) != 288 {
		t.Errorf("model=%q len=%d", resp.Model, len(resp.Forecast.Values))
	}
}

func TestPublicModelFactory(t *testing.T) {
	for _, name := range StandardModels() {
		m, err := NewModel(name, 1)
		if err != nil || m.Name() != name {
			t.Errorf("NewModel(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := NewModel("bogus", 1); err == nil {
		t.Error("bogus model should error")
	}
	// StandardModels returns a copy.
	s := StandardModels()
	s[0] = "mutated"
	if StandardModels()[0] == "mutated" {
		t.Error("StandardModels must return a copy")
	}
}

func TestPublicClassify(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{Region: "c", Servers: 20, Weeks: 4, Seed: 7, Mix: Mix{Stable: 1}})
	stable := 0
	for _, srv := range fleet.Servers {
		cat, err := Classify(srv.Load(), srv.LifespanDays(), DefaultMetrics())
		if err != nil {
			t.Fatal(err)
		}
		if cat == CategoryStable {
			stable++
		}
	}
	if share := float64(stable) / float64(len(fleet.Servers)); share < 0.9 {
		t.Errorf("stable share = %.2f", share)
	}
}

func TestPublicAutoscale(t *testing.T) {
	dbs := GenerateSQL(SQLConfig{Databases: 30, Days: 9, Seed: 3})
	stable, total, err := ClassifySQLFleet(dbs)
	if err != nil || total != 30 {
		t.Fatalf("classify: %d/%d err=%v", stable, total, err)
	}
	evs, err := CompareAutoscaleModels([]string{ModelPersistentPrevDay}, dbs, AutoscaleConfig{})
	if err != nil || len(evs) != 1 || evs[0].Databases == 0 {
		t.Fatalf("evals=%+v err=%v", evs, err)
	}
}

func TestFleetTrueDayMisses(t *testing.T) {
	fleet := GenerateFleet(FleetConfig{Region: "m", Servers: 2, Weeks: 1, Seed: 4})
	td := FleetTrueDay(fleet)
	if _, ok := td("ghost", fleet.Config.Start); ok {
		t.Error("unknown server should miss")
	}
	if _, ok := td(fleet.Servers[0].ID, fleet.Config.Start.AddDate(0, 0, 100)); ok {
		t.Error("day outside span should miss")
	}
	if day, ok := td(fleet.Servers[0].ID, fleet.Config.Start); !ok || day.Len() != 288 {
		t.Errorf("valid day: ok=%v len=%d", ok, day.Len())
	}
}
