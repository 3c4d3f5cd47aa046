package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/insights"
	"seagull/internal/lake"
	"seagull/internal/registry"
	"seagull/internal/simulate"
)

// fixture builds a small fleet, extracts all weeks into a lake, and returns
// a ready pipeline.
func fixture(t *testing.T, servers int) (*Pipeline, *simulate.Fleet) {
	t.Helper()
	return fixtureWeeks(t, servers, 4)
}

// fixtureWeeks is fixture over a fleet of the given number of weeks.
func fixtureWeeks(t *testing.T, servers, weeks int) (*Pipeline, *simulate.Fleet) {
	t.Helper()
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "testreg", Servers: servers, Weeks: weeks, Seed: 21,
	})
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract.ExtractAll(store, fleet); err != nil {
		t.Fatal(err)
	}
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	p := New(store, db, registry.New(nil), insights.New(nil))
	return p, fleet
}

func TestRunWeekEndToEnd(t *testing.T) {
	p, _ := fixture(t, 60)
	res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers == 0 || res.Rows == 0 {
		t.Fatalf("no data processed: %+v", res)
	}
	if res.Predicted == 0 || res.Evaluated == 0 {
		t.Fatalf("no predictions: %+v", res)
	}
	if res.Version != 1 {
		t.Errorf("version = %d", res.Version)
	}
	// All six stages must report timings.
	stages := map[string]bool{}
	for _, st := range res.StageTimings {
		stages[st.Stage] = true
	}
	for _, want := range []string{StageIngestion, StageValidation, StageFeatures,
		StageDeployment, StageTrainInfer, StageAccuracy} {
		if !stages[want] {
			t.Errorf("missing stage timing %q", want)
		}
	}
	// Persistent forecast on the paper-mix fleet chooses LL windows well.
	if res.Summary.PctCorrect < 0.85 {
		t.Errorf("LL correct = %.3f, want ≥ 0.85", res.Summary.PctCorrect)
	}
	// Week 1 cannot have predictable servers yet (needs 3 weeks of history).
	if res.Summary.PredictableCount != 0 {
		t.Errorf("predictable after week 1 = %d, want 0", res.Summary.PredictableCount)
	}
	// Documents persisted.
	if n := p.DB.Collection("predictions").Count("testreg"); n != res.Predicted {
		t.Errorf("stored predictions = %d, want %d", n, res.Predicted)
	}
	if n := p.DB.Collection("evaluations").Count("testreg"); n != res.Evaluated {
		t.Errorf("stored evaluations = %d, want %d", n, res.Evaluated)
	}
	var sum SummaryDoc
	if err := p.DB.Collection("summaries").Get("testreg", "week-0001", &sum); err != nil {
		t.Errorf("summary doc: %v", err)
	}
	// Dashboard recorded the run.
	runs := p.Dash.Runs()
	if len(runs) != 1 || !runs[0].Succeeded {
		t.Errorf("dashboard runs = %+v", runs)
	}
}

func TestRunScheduleBuildsPredictability(t *testing.T) {
	p, _ := fixture(t, 80)
	results := p.RunSchedule(context.Background(), Config{}, []string{"testreg"}, []int{0, 1, 2, 3})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// Weeks 0 and 1 cannot satisfy the three-week gate of Definition 9.
	for i, r := range results[:2] {
		if r.Summary.PredictableCount != 0 {
			t.Errorf("week %d predictable = %d, want 0", i, r.Summary.PredictableCount)
		}
	}
	// By week 3 the stable majority has three good weeks behind it.
	w3 := results[3]
	if w3.Summary.PctPredictable < 0.5 {
		t.Errorf("week 3 predictable = %.3f, want ≥ 0.5", w3.Summary.PctPredictable)
	}
	// Registry tracked four versions with recorded accuracy.
	hist := p.Registry.History(registry.Target{Scenario: Scenario, Region: "testreg"})
	if len(hist) != 4 {
		t.Fatalf("registry history = %d", len(hist))
	}
	for _, v := range hist {
		if v.Accuracy < 0 {
			t.Errorf("version %d accuracy unrecorded", v.Number)
		}
	}
	active, err := p.Registry.Active(registry.Target{Scenario: Scenario, Region: "testreg"})
	if err != nil || active.Number != 4 {
		t.Errorf("active = %+v err %v", active, err)
	}
}

func TestRunWeekMissingExtract(t *testing.T) {
	p, _ := fixture(t, 10)
	_, err := p.RunWeek(context.Background(), Config{Region: "ghost", Week: 0})
	if err == nil {
		t.Fatal("missing region should fail")
	}
	// The failure raised an incident and recorded a failed run.
	if incs := p.Dash.Incidents(); len(incs) == 0 {
		t.Error("no incident raised")
	}
	runs := p.Dash.Runs()
	if len(runs) != 1 || runs[0].Succeeded {
		t.Errorf("failed run not recorded: %+v", runs)
	}
}

func TestRunWeekUnknownModel(t *testing.T) {
	p, _ := fixture(t, 15)
	res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 1, ModelName: "bogus"})
	// The run completes (each server is skipped) but predicts nothing and
	// raises incidents.
	if err != nil {
		t.Fatalf("unexpected hard failure: %v", err)
	}
	if res.Predicted != 0 {
		t.Errorf("predicted = %d with bogus model", res.Predicted)
	}
	if len(p.Dash.Incidents()) == 0 {
		t.Error("no incidents for unknown model")
	}
}

func TestFallbackOnRegression(t *testing.T) {
	// A fleet of unstable, pattern-free servers: persistent forecast chooses
	// only ~2/3 of LL windows correctly here (deterministic given the seed),
	// well under a 0.9 production bar.
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "testreg", Servers: 60, Weeks: 4, Seed: 33,
		Mix: simulate.Mix{NoPattern: 1},
	})
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract.ExtractAll(store, fleet); err != nil {
		t.Fatal(err)
	}
	db, _ := cosmos.Open("")
	p := New(store, db, registry.New(nil), insights.New(nil))

	// A previously deployed version is on record as known-good.
	target := registry.Target{Scenario: Scenario, Region: "testreg"}
	v1 := p.Registry.Deploy(target, forecast.NameSSA, "known good")
	if err := p.Registry.RecordAccuracy(target, v1, 0.99); err != nil {
		t.Fatal(err)
	}

	res, err := p.RunWeek(context.Background(), Config{
		Region: "testreg", Week: 2,
		MinFleetAccuracy: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PctCorrect >= 0.9 {
		t.Fatalf("fixture regression broke: accuracy %.3f", res.Summary.PctCorrect)
	}
	if !res.FellBack {
		t.Error("expected fallback to the known-good version")
	}
	active, err := p.Registry.Active(target)
	if err != nil {
		t.Fatal(err)
	}
	if active.Number != v1 || active.ModelName != forecast.NameSSA {
		t.Errorf("active after fallback = %+v", active)
	}
	// The regression raised a warning incident.
	if len(p.Dash.Incidents()) == 0 {
		t.Error("no incident for the regression")
	}
}

// editExtract rewrites the stored extract of (region, week) through edit.
func editExtract(t *testing.T, p *Pipeline, region string, week int, edit func(lines []string) []string) {
	t.Helper()
	path := p.Store.Path(extract.Dataset, region, week)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := edit(strings.Split(string(data), "\n"))
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// storedPredictions returns the predictions collection's stored bytes by id.
func storedPredictions(t *testing.T, p *Pipeline, region string) map[string]string {
	t.Helper()
	return storedDocs(t, p, PredictionsCollection, region)
}

// storedDocs returns a collection's stored bytes in region by id.
func storedDocs(t *testing.T, p *Pipeline, collection, region string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := p.DB.Collection(collection).Query(region, func(id string, body json.RawMessage) error {
		out[id] = string(body)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The worker count changes neither training nor ingestion, whose history
// weeks parse concurrently: a week with three history weeks and planted
// anomalies gives the same rows, servers, anomalies in order, classes and
// stored prediction bytes on one worker as on eight.
func TestWorkersProduceSameResults(t *testing.T) {
	plant := func(lines []string) []string {
		for i, cpu := range map[int]string{5: "250.000", 900: "-7.000", 4000: "101.000"} {
			parts := strings.Split(lines[i], ",")
			parts[2] = cpu
			lines[i] = strings.Join(parts, ",")
		}
		return lines
	}
	for _, week := range []int{1, 3} {
		p1, _ := fixture(t, 40)
		p8, _ := fixture(t, 40)
		editExtract(t, p1, "testreg", week, plant)
		editExtract(t, p8, "testreg", week, plant)
		r1, err := p1.RunWeek(context.Background(), Config{Region: "testreg", Week: week, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r8, err := p8.RunWeek(context.Background(), Config{Region: "testreg", Week: week, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rows != r8.Rows || r1.Servers != r8.Servers || r1.Rows == 0 {
			t.Errorf("week %d: rows/servers %d/%d vs %d/%d", week, r1.Rows, r1.Servers, r8.Rows, r8.Servers)
		}
		if r1.Predicted != r8.Predicted || r1.Evaluated != r8.Evaluated {
			t.Errorf("week %d: parallelism changed results: %d/%d vs %d/%d",
				week, r1.Predicted, r1.Evaluated, r8.Predicted, r8.Evaluated)
		}
		if r1.Summary.PctCorrect != r8.Summary.PctCorrect {
			t.Errorf("week %d: accuracy differs: %v vs %v", week, r1.Summary.PctCorrect, r8.Summary.PctCorrect)
		}
		if len(r1.Validation.Anomalies) == 0 || !reflect.DeepEqual(r1.Validation, r8.Validation) {
			t.Errorf("week %d: validation differs:\n%+v\n%+v", week, r1.Validation, r8.Validation)
		}
		if !reflect.DeepEqual(r1.Classes, r8.Classes) {
			t.Errorf("week %d: classes differ: %+v vs %+v", week, r1.Classes, r8.Classes)
		}
		d1, d8 := storedPredictions(t, p1, "testreg"), storedPredictions(t, p8, "testreg")
		if len(d1) != r1.Predicted || !reflect.DeepEqual(d1, d8) {
			t.Errorf("week %d: stored predictions differ (%d vs %d docs)", week, len(d1), len(d8))
		}
	}
}

// TestRunWeekDeterministic: RunWeek is a pure function of its config and the
// stored extracts. Week 3 of a 60-server lake, run 30 times at each worker
// count, each time on a fresh Pipeline and document store, stores the same
// summary, prediction and evaluation bytes every time. Thirty runs at this
// size are what it takes for map order to show in the fleet summary's
// float sum.
func TestRunWeekDeterministic(t *testing.T) {
	base, _ := fixtureWeeks(t, 60, 4)
	var want map[string]map[string]string
	for _, workers := range []int{1, 8} {
		for run := 0; run < 30; run++ {
			db, err := cosmos.Open("")
			if err != nil {
				t.Fatal(err)
			}
			p := New(base.Store, db, registry.New(nil), insights.New(nil))
			if _, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3, Workers: workers}); err != nil {
				t.Fatal(err)
			}
			got := map[string]map[string]string{}
			for _, c := range []string{SummariesCollection, PredictionsCollection, "evaluations"} {
				got[c] = storedDocs(t, p, c, "testreg")
			}
			if want == nil {
				want = got
				continue
			}
			for c, docs := range want {
				if len(docs) == 0 || !reflect.DeepEqual(got[c], docs) {
					t.Fatalf("workers %d, run %d: stored %s differ from the first run's", workers, run, c)
				}
			}
		}
	}
}

// With the history weeks parsed concurrently, the error a run returns is
// still the first in week order, and a missing earliest week is skipped.
func TestIngestReturnsFirstCorruptWeek(t *testing.T) {
	corrupt := func(line string) func([]string) []string {
		return func(lines []string) []string { return append(lines[:len(lines)-1], line) }
	}
	for _, workers := range []int{1, 8} {
		p, _ := fixture(t, 10)
		if err := os.Remove(p.Store.Path(extract.Dataset, "testreg", 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3, Workers: workers}); err != nil {
			t.Fatalf("workers %d: a missing week 0 must be skipped: %v", workers, err)
		}
		editExtract(t, p, "testreg", 1, corrupt("garbage,row\n"))
		editExtract(t, p, "testreg", 2, corrupt("srv,1,2,3\n"))
		_, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "ingest testreg week 1:") || !strings.Contains(err.Error(), "garbage") {
			t.Errorf("workers %d: err = %v, want week 1's error", workers, err)
		}
	}
}

func TestPredictionDocSeries(t *testing.T) {
	d := PredictionDoc{
		BackupDay:   time.Date(2019, 12, 5, 0, 0, 0, 0, time.UTC),
		IntervalMin: 5,
		Values:      []float64{1, 2, 3},
	}
	s := d.Series()
	if s.Len() != 3 || s.Interval != 5*time.Minute || !s.Start.Equal(d.BackupDay) {
		t.Errorf("series = %+v", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ModelName != forecast.NamePersistentPrevDay {
		t.Errorf("default model = %q", c.ModelName)
	}
	if c.Interval != 5*time.Minute {
		t.Errorf("defaults = %+v", c)
	}
}

func TestErrNoData(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Write an empty (header-only) extract.
	w, err := store.Writer(extract.Dataset, "empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(lake.Header + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db, _ := cosmos.Open("")
	p := New(store, db, registry.New(nil), nil)
	_, err = p.RunWeek(context.Background(), Config{Region: "empty", Week: 0})
	if !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}
