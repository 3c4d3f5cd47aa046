package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/pipeline"
)

// storePrediction writes a PredictionDoc the way the pipeline does.
func storePrediction(t *testing.T, db *cosmos.DB, region string, doc *pipeline.PredictionDoc) {
	t.Helper()
	id := fmt.Sprintf("%s/week-%04d", doc.ServerID, doc.Week)
	if err := db.Collection("predictions").Upsert(region, id, doc); err != nil {
		t.Fatal(err)
	}
}

// flatDoc builds a stored prediction of constant load `level` for a backup
// day starting at `day`.
func flatDoc(serverID, region string, week int, day time.Time, level float64) *pipeline.PredictionDoc {
	vals := make([]float64, 288)
	for i := range vals {
		vals[i] = level
	}
	return &pipeline.PredictionDoc{
		ServerID: serverID, Region: region, Week: week, Model: "pf-prev-day",
		BackupDay: day, WindowPoints: 12, IntervalMin: 5, Values: vals,
	}
}

func TestDriftSweep(t *testing.T) {
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(testConfig(4096))
	const region = "westus"
	day := testEpoch.Add(7 * 24 * time.Hour)

	// ok-srv: live actuals equal the prediction → ratio 1, no drift.
	// drift-srv: live actuals 40 points above the prediction → ratio 0.
	// thin-srv: only 5 live points inside the day → skipped (below MinPoints).
	// cold-srv: no live telemetry at all → skipped.
	storePrediction(t, db, region, flatDoc("ok-srv", region, 1, day, 20))
	storePrediction(t, db, region, flatDoc("drift-srv", region, 1, day, 20))
	storePrediction(t, db, region, flatDoc("thin-srv", region, 1, day, 20))
	storePrediction(t, db, region, flatDoc("cold-srv", region, 1, day, 20))
	for i := 0; i < 288; i++ {
		at := day.Add(time.Duration(i) * 5 * time.Minute)
		g.Append("ok-srv", at, 20)
		g.Append("drift-srv", at, 60)
		if i < 5 {
			g.Append("thin-srv", at, 20)
		}
	}

	det := NewDriftDetector(g, db)
	rep, err := det.Sweep(context.Background(), region, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 4 || rep.Drifted != 1 || rep.Skipped != 2 {
		t.Fatalf("report = %+v, want checked 4 / drifted 1 / skipped 2", rep)
	}
	if len(rep.DriftedServers) != 1 || rep.DriftedServers[0].ServerID != "drift-srv" {
		t.Fatalf("drifted = %+v", rep.DriftedServers)
	}
	if sd := rep.DriftedServers[0]; sd.Ratio != 0 || sd.Points != 288 {
		t.Fatalf("drift verdict = %+v, want ratio 0 over 288 points", sd)
	}

	// Wrong week: nothing checked.
	rep, err = det.Sweep(context.Background(), region, 9)
	if err != nil || rep.Checked != 0 {
		t.Fatalf("week 9 sweep = %+v, %v", rep, err)
	}

	st := det.Stats()
	if st.Sweeps != 2 || st.Checked != 4 || st.Drifted != 1 || st.Skipped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDriftSweepPartialDay: actuals covering only part of the predicted day
// still judge once MinPoints arrive, and the verdict worsens as bad actuals
// accumulate — the "react to live load" loop.
func TestDriftSweepPartialDay(t *testing.T) {
	db, _ := cosmos.Open("")
	g := NewIngestor(testConfig(4096))
	day := testEpoch.Add(24 * time.Hour)
	storePrediction(t, db, "r", flatDoc("srv", "r", 0, day, 20))
	det := NewDriftDetector(g, db)

	// First two hours match the prediction.
	for i := 0; i < 24; i++ {
		g.Append("srv", day.Add(time.Duration(i)*5*time.Minute), 20)
	}
	rep, err := det.Sweep(context.Background(), "r", 0)
	if err != nil || rep.Drifted != 0 || rep.Skipped != 0 {
		t.Fatalf("matching partial day: %+v, %v", rep, err)
	}

	// The next six hours run 40 points hot: 24 good vs 72 bad → ratio 0.25.
	for i := 24; i < 96; i++ {
		g.Append("srv", day.Add(time.Duration(i)*5*time.Minute), 60)
	}
	rep, err = det.Sweep(context.Background(), "r", 0)
	if err != nil || rep.Drifted != 1 {
		t.Fatalf("hot partial day: %+v, %v", rep, err)
	}
	if got := rep.DriftedServers[0].Ratio; got != 0.25 {
		t.Fatalf("ratio = %v, want 0.25", got)
	}
}

// TestDriftSweepMisaligned: a stored day off the ingestor's slot grid is
// skipped rather than scored against truncated (wrong-slot) pairings — the
// same verdict the refresher gives the same input.
func TestDriftSweepMisaligned(t *testing.T) {
	db, _ := cosmos.Open("")
	g := NewIngestor(testConfig(4096))
	day := testEpoch.Add(24*time.Hour + time.Minute) // off the 5-minute grid
	storePrediction(t, db, "r", flatDoc("srv", "r", 0, day, 20))
	for i := 0; i < 288; i++ {
		g.Append("srv", testEpoch.Add(24*time.Hour).Add(time.Duration(i)*5*time.Minute), 60)
	}
	rep, err := NewDriftDetector(g, db).Sweep(context.Background(), "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || rep.Skipped != 1 || rep.Drifted != 0 {
		t.Fatalf("misaligned day: %+v, want skipped", rep)
	}
}

func TestDriftSweepCancel(t *testing.T) {
	db, _ := cosmos.Open("")
	g := NewIngestor(testConfig(512))
	storePrediction(t, db, "r", flatDoc("srv", "r", 0, testEpoch, 20))
	det := NewDriftDetector(g, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.Sweep(ctx, "r", 0); err == nil {
		t.Fatal("cancelled sweep should fail")
	}
}
