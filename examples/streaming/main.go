// Streaming: the online telemetry loop end to end — a weekly batch run
// stores predictions, live telemetry flows in through POST /v2/ingest,
// one server's backup day runs hot, a drift sweep flags exactly that
// server, and the refresher retrains it through the warm model pool and
// republishes the prediction. A fleet where one server drifted costs one
// retrain, not a weekly run.
//
// The finale is the durability seam: the live rings are snapshotted to the
// lake, a second System (a "restarted process") restores them, and its
// live windows are bit-identical — a restart costs nothing re-fed.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"seagull"
	"seagull/internal/serving"
)

func main() {
	log.SetFlags(0)

	// An explicit data dir so a "restarted" System below can find the
	// snapshot the first one saved (a System-owned temp dir is removed on
	// Close).
	dir, err := os.MkdirTemp("", "seagull-streaming-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	start := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	sys, err := seagull.NewSystem(seagull.SystemConfig{
		DataDir: dir,
		Stream:  seagull.StreamConfig{Epoch: start},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Week 1 of the batch world: extract, train, predict, store.
	fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "westus", Servers: 12, Weeks: 2, Seed: 11})
	if _, err := sys.LoadFleet(fleet); err != nil {
		log.Fatal(err)
	}
	res, err := sys.RunWeek(seagull.PipelineConfig{Region: "westus", Week: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weekly run: %d servers predicted, %.0f%% LL windows correct\n",
		res.Predicted, 100*res.Summary.PctCorrect)

	// Expose the serving surface (predict, ingest, varz) and start the
	// background refresher that drains the drift queue.
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	stop := sys.StartRefresher()
	defer stop()
	client := seagull.NewClient(srv.URL)
	ctx := context.Background()

	stored, err := client.Predictions(ctx, "westus", 1)
	if err != nil {
		log.Fatal(err)
	}
	target := stored.Predictions[0]
	fmt.Printf("stored prediction for %s: backup day %s, LL window at %s\n",
		target.ServerID, target.BackupDay.Format("Mon Jan 2"),
		target.Series().TimeAt(target.LLStart).Format("15:04"))

	// Live telemetry arrives continuously. Everyone reports their true
	// load — except the target server, whose backup day runs 45 points
	// above what the model predicted last week.
	points := 0
	for _, s := range fleet.Servers {
		load := s.Load()
		hot := s.ID == target.ServerID
		vals := make([]float64, 0, load.Len())
		for i := 0; i < load.Len(); i++ {
			v := load.Values[i]
			at := load.TimeAt(i)
			if hot && !at.Before(target.BackupDay) && at.Before(target.BackupDay.Add(24*time.Hour)) {
				v += 45
			}
			if v != v {
				v = -1 // missing encodes as negative on the wire (lake convention)
			}
			vals = append(vals, v)
		}
		resp, err := client.Ingest(ctx, serving.IngestRequest{Servers: []serving.IngestSeries{
			{ServerID: s.ID, Start: load.Start, IntervalMin: 5, Values: vals},
		}})
		if err != nil {
			log.Fatal(err)
		}
		points += resp.Accepted
	}
	fmt.Printf("\ningested %d live points for %d servers\n", points, len(fleet.Servers))

	// One more ingest call closes the loop: sweep week 1 for drift and
	// queue whatever drifted for refresh.
	resp, err := client.Ingest(ctx, serving.IngestRequest{
		Points: []serving.IngestPoint{{
			ServerID: target.ServerID,
			TimeUnix: target.BackupDay.Add(24 * time.Hour).Unix(),
			Value:    42,
		}},
		Sweep: &serving.SweepSpec{Region: "westus", Week: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drift sweep: %d predictions checked, %d drifted %v, %d queued for refresh\n",
		resp.Sweep.Checked, resp.Sweep.Drifted, resp.Sweep.Servers, resp.Sweep.Queued)

	// The background refresher retrains only the drifted servers through
	// the warm pool and republishes their PredictionDocs.
	deadline := time.Now().Add(10 * time.Second)
	for sys.Refresher().Stats().Refreshed < uint64(resp.Sweep.Queued) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	after, err := client.Predictions(ctx, "westus", 1)
	if err != nil {
		log.Fatal(err)
	}
	refreshed := 0
	for _, doc := range after.Predictions {
		if doc.Refreshes > 0 {
			refreshed++
			fmt.Printf("refreshed %s: LL window now at %s (refresh #%d)\n",
				doc.ServerID, doc.Series().TimeAt(doc.LLStart).Format("15:04"), doc.Refreshes)
		}
	}
	fmt.Printf("→ %d of %d predictions refreshed; the rest were left untouched\n",
		refreshed, len(after.Predictions))

	// /varz tells the same story operationally.
	vz, err := client.Varz(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvarz: ingest appended=%d dup=%d · drift sweeps=%d drifted=%d · refreshed=%d · pool hits=%d misses=%d\n",
		vz.Ingest.Appended, vz.Ingest.Duplicates, vz.Drift.Sweeps, vz.Drift.Drifted,
		vz.Refresh.Refreshed, vz.Pool.Hits, vz.Pool.Misses)

	// Restart recovery: snapshot the live rings to the lake (what
	// seagull-serve does on drain — here without the background tickers, so
	// the one snapshot Close writes is the whole durable state), then bring
	// up a second System over the same data dir — its restored live windows
	// match the original bit for bit, so forecasts, drift verdicts and
	// refreshes pick up where the dead process left off instead of waiting
	// for a month of re-fed telemetry.
	drainOnly := seagull.DurabilityConfig{SnapshotEvery: -1}
	dur := sys.NewDurability(drainOnly)
	if err := dur.Open(); err != nil {
		log.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		log.Fatal(err)
	}
	restarted, err := seagull.NewSystem(seagull.SystemConfig{
		DataDir: dir,
		Stream:  seagull.StreamConfig{Epoch: start},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer restarted.Close()
	if _, err := restarted.NewDurability(drainOnly).Recover(); err != nil {
		log.Fatal(err)
	}
	identical := 0
	for _, s := range fleet.Servers {
		before, ok1 := sys.Stream().View(s.ID)
		after, ok2 := restarted.Stream().View(s.ID)
		if ok1 && ok2 && before.Len() == after.Len() {
			same := true
			for i := range before.Values {
				a, b := before.Values[i], after.Values[i]
				if a != b && !(a != a && b != b) { // NaN slots compare equal
					same = false
					break
				}
			}
			if same {
				identical++
			}
		}
	}
	fmt.Printf("\nrestart recovery: snapshot → restore brought back %d/%d live windows bit-identical\n",
		identical, len(fleet.Servers))
}
