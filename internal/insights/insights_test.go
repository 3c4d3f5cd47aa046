package insights

import (
	"strings"
	"testing"
	"time"
)

func tick() func() time.Time {
	t := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Minute)
		return t
	}
}

func TestRaise(t *testing.T) {
	d := New(tick())

	d.Raise(SevError, "westus", "validation", "found %d anomalies", 3)
	d.Raise(SevCritical, "eastus", "deployment", "deploy failed")

	incs := d.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents=%d", len(incs))
	}
	if incs[0].Severity != SevError || incs[0].Message != "found 3 anomalies" {
		t.Errorf("inc[0] = %+v", incs[0])
	}
	if !incs[1].At.After(incs[0].At) {
		t.Error("timestamps should advance")
	}
	if !strings.Contains(incs[0].String(), "westus/validation") {
		t.Errorf("String = %q", incs[0].String())
	}
}

func TestRecordRunsAndSummary(t *testing.T) {
	d := New(tick())
	d.RecordRun(RunRecord{
		Region: "westus", Week: 1, Total: 10 * time.Minute, Succeeded: true,
		Stages: []StageTiming{
			{Stage: "ingestion", Duration: 4 * time.Minute},
			{Stage: "validation", Duration: 6 * time.Minute},
		},
	})
	d.RecordRun(RunRecord{
		Region: "eastus", Week: 1, Total: 20 * time.Minute, Succeeded: false, Error: "boom",
		Stages: []StageTiming{
			{Stage: "ingestion", Duration: 8 * time.Minute},
		},
	})
	d.Raise(SevError, "eastus", "pipeline", "boom")

	s := d.Summarize()
	if s.Runs != 2 || s.Succeeded != 1 || s.Failed != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanRuntime != 15*time.Minute {
		t.Errorf("mean runtime = %v", s.MeanRuntime)
	}
	if s.StageMeans["ingestion"] != 6*time.Minute {
		t.Errorf("ingestion mean = %v", s.StageMeans["ingestion"])
	}
	if s.StageMeans["validation"] != 6*time.Minute {
		t.Errorf("validation mean = %v", s.StageMeans["validation"])
	}
	if s.Incidents[SevError] != 1 {
		t.Errorf("incident counts = %v", s.Incidents)
	}
	if len(s.Regions) != 2 || s.Regions[0] != "eastus" {
		t.Errorf("regions = %v", s.Regions)
	}
}

func TestEmptySummary(t *testing.T) {
	d := New(nil)
	s := d.Summarize()
	if s.Runs != 0 || s.MeanRuntime != 0 || len(s.StageMeans) != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestRunsReturnsCopy(t *testing.T) {
	d := New(tick())
	d.RecordRun(RunRecord{Region: "a"})
	runs := d.Runs()
	runs[0].Region = "mutated"
	if d.Runs()[0].Region != "a" {
		t.Error("Runs must return a copy")
	}
}
