package scheduler

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/insights"
	"seagull/internal/lake"
	"seagull/internal/metrics"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// fixture runs the pipeline over four weeks and returns a scheduler plus the
// fleet for impact evaluation.
func fixture(t *testing.T, servers int) (*Scheduler, *simulate.Fleet, *pipeline.Pipeline) {
	t.Helper()
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "sched", Servers: servers, Weeks: 4, Seed: 33,
	})
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract.ExtractAll(store, fleet); err != nil {
		t.Fatal(err)
	}
	db, _ := cosmos.Open("")
	p := pipeline.New(store, db, registry.New(nil), insights.New(nil))
	for week := 0; week < 4; week++ {
		if _, err := p.RunWeek(context.Background(), pipeline.Config{Region: "sched", Week: week}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, NewFabricStore(), metrics.DefaultConfig())
	return s, fleet, p
}

func TestScheduleWeekDecisions(t *testing.T) {
	s, _, _ := fixture(t, 70)
	decisions, err := s.ScheduleWeek(context.Background(), "sched", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("no decisions")
	}
	predicted, defaulted := 0, 0
	for _, d := range decisions {
		switch d.Source {
		case SourcePredicted:
			predicted++
			// The chosen window must lie within the backup day.
			off := d.Start.Sub(d.BackupDay)
			if off < 0 || off >= 24*time.Hour {
				t.Errorf("%s window start %v outside backup day", d.ServerID, d.Start)
			}
		case SourceDefault:
			defaulted++
			if !d.Start.Equal(d.DefaultStart) {
				t.Errorf("%s defaulted but start %v != default %v", d.ServerID, d.Start, d.DefaultStart)
			}
		}
		// Every decision must have a fabric property.
		prop, ok := s.Fabric.Get(d.ServerID)
		if !ok {
			t.Fatalf("no fabric property for %s", d.ServerID)
		}
		if !prop.Start.Equal(d.Start) || prop.Source != Source(d.Source) {
			t.Errorf("property mismatch for %s: %+v vs %+v", d.ServerID, prop, d)
		}
	}
	// After three good weeks the stable majority is predictable.
	if predicted == 0 {
		t.Error("no servers scheduled by prediction")
	}
	t.Logf("decisions: %d predicted, %d defaulted", predicted, defaulted)
}

func TestScheduleEarlyWeekAllDefault(t *testing.T) {
	s, _, _ := fixture(t, 40)
	// Week 0 has no prior evaluation → everything defaults.
	decisions, err := s.ScheduleWeek(context.Background(), "sched", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.Source != SourceDefault {
			t.Errorf("%s scheduled in week 0", d.ServerID)
		}
	}
}

func TestEvaluateImpactShape(t *testing.T) {
	s, fleet, _ := fixture(t, 120)
	decisions, err := s.ScheduleWeek(context.Background(), "sched", 3)
	if err != nil {
		t.Fatal(err)
	}
	im, err := EvaluateImpact(decisions, fleet.TrueDay, metrics.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if im.Decisions == 0 || im.Scheduled == 0 {
		t.Fatalf("impact = %+v", im)
	}
	// The three buckets partition the scheduled servers.
	if im.DefaultWasLL+im.Moved+im.IncorrectWindow != im.Scheduled {
		t.Errorf("buckets %d+%d+%d != scheduled %d",
			im.DefaultWasLL, im.Moved, im.IncorrectWindow, im.Scheduled)
	}
	// Paper shape: most defaults already sit in LL windows; incorrect
	// windows are rare.
	if im.PctDefaultWasLL() < 0.5 {
		t.Errorf("default-was-LL = %.3f, expected the majority", im.PctDefaultWasLL())
	}
	if im.PctIncorrect() > 0.15 {
		t.Errorf("incorrect = %.3f, expected rare", im.PctIncorrect())
	}
	t.Logf("impact: defaultLL=%.1f%% moved=%.1f%% incorrect=%.1f%% collisionsAvoided=%.1f%% improvedMin=%d",
		100*im.PctDefaultWasLL(), 100*im.PctMoved(), 100*im.PctIncorrect(),
		100*im.PctCollisionsAvoided(), im.ImprovedMinutes)
}

func TestEvaluateImpactMissingActuals(t *testing.T) {
	s, _, _ := fixture(t, 30)
	decisions, err := s.ScheduleWeek(context.Background(), "sched", 3)
	if err != nil {
		t.Fatal(err)
	}
	im, err := EvaluateImpact(decisions,
		func(string, time.Time) (timeseries.Series, bool) { return timeseries.Series{}, false },
		metrics.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if im.Decisions != 0 {
		t.Errorf("decisions counted without actuals: %+v", im)
	}
}

func TestFabricStore(t *testing.T) {
	f := NewFabricStore()
	if _, ok := f.Get("x"); ok {
		t.Error("empty store Get should miss")
	}
	p := Property{ServerID: "x", Start: time.Now(), Source: SourcePredicted}
	f.Set(p)
	got, ok := f.Get("x")
	if !ok || got.ServerID != "x" || got.Source != SourcePredicted {
		t.Errorf("got %+v ok=%v", got, ok)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
	// Overwrite.
	p.Source = SourceDefault
	f.Set(p)
	got, _ = f.Get("x")
	if got.Source != SourceDefault {
		t.Error("Set should overwrite")
	}
}

func TestClampWindowStart(t *testing.T) {
	cases := []struct{ idx, w, ppd, want int }{
		{0, 10, 288, 0},
		{285, 10, 288, 278}, // clamped to fit
		{-3, 10, 288, 0},
		{100, 10, 288, 100},
	}
	for _, c := range cases {
		if got := clampWindowStart(c.idx, c.w, c.ppd); got != c.want {
			t.Errorf("clamp(%d,%d,%d) = %d, want %d", c.idx, c.w, c.ppd, got, c.want)
		}
	}
}

func TestOffsetInDay(t *testing.T) {
	day := time.Date(2019, 12, 5, 0, 0, 0, 0, time.UTC)
	if got := offsetInDay(day.Add(90*time.Minute), day, 5*time.Minute); got != 18 {
		t.Errorf("offset = %d, want 18", got)
	}
	if got := offsetInDay(day.Add(-time.Hour), day, 5*time.Minute); got != 0 {
		t.Errorf("negative offset = %d, want 0", got)
	}
}

// ScheduleWeek decodes only its own week's predictions: the decisions, and
// their order, are the same whether the region's partition holds every
// stored week or just the scheduled one — and another week's document is
// never decoded, even when it would not decode.
func TestScheduleWeekIgnoresOtherWeeks(t *testing.T) {
	s, _, _ := fixture(t, 20)
	ctx := context.Background()
	all, err := s.ScheduleWeek(ctx, "sched", 3)
	if err != nil {
		t.Fatal(err)
	}
	predCol := s.DB.Collection(pipeline.PredictionsCollection)
	if err := predCol.Upsert("sched", pipeline.DocID("srv-undecodable", 1), "not a prediction"); err != nil {
		t.Fatal(err)
	}
	for _, id := range predCol.IDs("sched") {
		if !strings.HasSuffix(id, pipeline.DocID("", 3)) && id != pipeline.DocID("srv-undecodable", 1) {
			if err := predCol.Delete("sched", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	one, err := s.ScheduleWeek(ctx, "sched", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || !reflect.DeepEqual(all, one) {
		t.Errorf("decisions differ:\nall weeks stored: %+v\none week stored:  %+v", all, one)
	}
}
