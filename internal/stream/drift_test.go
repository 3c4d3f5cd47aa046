package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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
	g := newIngestor(testConfig(4096), 4)
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
	g := newIngestor(testConfig(4096), 4)
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
	g := newIngestor(testConfig(4096), 4)
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
	g := newIngestor(testConfig(512), 4)
	storePrediction(t, db, "r", flatDoc("srv", "r", 0, testEpoch, 20))
	det := NewDriftDetector(g, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.Sweep(ctx, "r", 0); err == nil {
		t.Fatal("cancelled sweep should fail")
	}
}

// TestDriftSweepSameLengthRewrite: a stored prediction rewritten with a body
// of the same length — one digit changed — is decoded again and judged on its
// new values, and an unchanged one is not decoded twice.
func TestDriftSweepSameLengthRewrite(t *testing.T) {
	db, _ := cosmos.Open("")
	g := newIngestor(testConfig(4096), 4)
	day := testEpoch.Add(24 * time.Hour)
	// 12 live points at 20 — exactly enough to judge. With two predicted
	// slots at 50 the bucket ratio is 10/12 < 0.90 (drifted); with one it
	// is 11/12 (accurate).
	for i := 0; i < minDriftPoints; i++ {
		g.Append("srv", day.Add(time.Duration(i)*5*time.Minute), 20)
	}
	hot, cool := flatDoc("srv", "r", 0, day, 20), flatDoc("srv", "r", 0, day, 20)
	hot.Values[0], hot.Values[1] = 50, 50
	cool.Values[0] = 50
	hb, _ := json.Marshal(hot)
	cb, _ := json.Marshal(cool)
	if len(hb) != len(cb) {
		t.Fatalf("bodies differ in length: %d vs %d", len(hb), len(cb))
	}

	det := NewDriftDetector(g, db)
	sweep := func(wantDrifted int) Report {
		t.Helper()
		rep, err := det.Sweep(context.Background(), "r", 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checked != 1 || rep.Drifted != wantDrifted {
			t.Fatalf("report = %+v, want 1 checked / %d drifted", rep, wantDrifted)
		}
		return rep
	}
	storePrediction(t, db, "r", hot)
	if rep := sweep(1); rep.DriftedServers[0].Ratio != 10.0/12 {
		t.Fatalf("hot verdict = %+v, want ratio 10/12", rep.DriftedServers[0])
	}
	sweep(1)
	if got := det.Stats().Decoded; got != 1 {
		t.Fatalf("decoded = %d after two sweeps of one unchanged doc, want 1", got)
	}
	storePrediction(t, db, "r", cool)
	sweep(0)
	if got := det.Stats().Decoded; got != 2 {
		t.Fatalf("decoded = %d after a same-length rewrite, want 2", got)
	}
}

// TestDriftSweepReuseMatchesFresh is the reuse rule as a property: over
// random interleavings of same- and different-length upserts, deletes, live
// appends and sweeps of two weeks, every sweep reports exactly what a
// freshly built detector reports, and decodes exactly the documents of the
// swept week written since the previous sweep (all of them when the
// previous sweep was of another week).
func TestDriftSweepReuseMatchesFresh(t *testing.T) {
	const region = "r"
	day := testEpoch.Add(24 * time.Hour)
	servers := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	levels := []float64{20, 30, 60, 5, 100.5} // swapping two-digit levels keeps a body's length
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, _ := cosmos.Open("")
		g := newIngestor(testConfig(4096), 4)
		det := NewDriftDetector(g, db)
		coll := db.Collection(pipeline.PredictionsCollection)
		stored := map[string]int{} // id -> week
		written := map[string]bool{}
		lastWeek := -1
		for op := 0; op < 200; op++ {
			srv := servers[rng.Intn(len(servers))]
			week := 1 + rng.Intn(2)
			id := pipeline.DocID(srv, week)
			switch r := rng.Intn(10); {
			case r < 4:
				doc := flatDoc(srv, region, week, day, levels[rng.Intn(len(levels))])
				doc.Values[rng.Intn(len(doc.Values))] = levels[rng.Intn(len(levels))]
				storePrediction(t, db, region, doc)
				stored[id], written[id] = week, true
			case r < 5:
				if _, ok := stored[id]; ok {
					if err := coll.Delete(region, id); err != nil {
						t.Fatal(err)
					}
					delete(stored, id)
				}
			case r < 8:
				for n := rng.Intn(30); n > 0; n-- {
					g.Append(srv, day.Add(time.Duration(rng.Intn(288))*5*time.Minute), levels[rng.Intn(len(levels))])
				}
			default:
				want := uint64(0)
				for id, w := range stored {
					if w == week && (written[id] || lastWeek != week) {
						want++
					}
				}
				before := det.Stats().Decoded
				got, err := det.Sweep(ctx, region, week)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewDriftDetector(g, db).Sweep(ctx, region, week)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, fresh) {
					t.Fatalf("seed %d op %d: reused report %+v, fresh %+v", seed, op, got, fresh)
				}
				if d := det.Stats().Decoded - before; d != want {
					t.Fatalf("seed %d op %d: sweep of week %d decoded %d docs, want %d", seed, op, week, d, want)
				}
				clear(written)
				lastWeek = week
			}
		}
	}
}

// TestDriftSweepConcurrentWrites: two sweepers share one region's decoded
// predictions while a writer keeps rewriting them (run under -race); once
// the writer stops, a sweep agrees with a fresh detector.
func TestDriftSweepConcurrentWrites(t *testing.T) {
	db, _ := cosmos.Open("")
	g := newIngestor(testConfig(4096), 4)
	day := testEpoch.Add(24 * time.Hour)
	for s := 0; s < 8; s++ {
		for i := 0; i < 288; i++ {
			g.Append(fmt.Sprintf("srv-%d", s), day.Add(time.Duration(i)*5*time.Minute), 20)
		}
	}
	det := NewDriftDetector(g, db)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := det.Sweep(ctx, "r", 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		storePrediction(t, db, "r", flatDoc(fmt.Sprintf("srv-%d", i%8), "r", 0, day, float64(20+40*(i%2))))
	}
	close(stop)
	wg.Wait()
	got, err := det.Sweep(ctx, "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDriftDetector(g, db).Sweep(ctx, "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Checked != 8 {
		t.Fatalf("after concurrent writes: report %+v, fresh %+v", got, want)
	}
}
