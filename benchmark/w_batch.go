package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"time"

	"seagull"
)

// Frozen sizes of batch_week.
const (
	weekRegions   = 4
	weekServers   = 16 // per region: sized so a run makes well over 200 (region, week) calls
	weekWeeks     = 5  // weeks 0..4 are extracted
	weekFirst     = 3  // the timed calls cycle over weeks 3 and 4, each with three weeks of history
	weekCycle     = weekRegions * 2
	weekWarmCalls = weekCycle // one full cycle: every (region, week) gets its reference result
)

func weekRegion(r int) string { return fmt.Sprintf("region-%d", r) }

// batchWeek is the paper's weekly pipeline and its application: RunWeek over
// a region's extracts, then ScheduleBackups from the stored predictions.
type batchWeek struct {
	sys    *seagull.System
	rec    *recorder
	fleets []*seagull.Fleet
	want   [weekCycle]uint64 // the first result digest of each (region, week)
	seen   [weekCycle]bool

	stages map[string][]float64 // traced window: RunWeek's own stage timings, ms
}

func (w *batchWeek) clients() int { return 1 }

func (w *batchWeek) setup(seed int64, dir string, rec *recorder) error {
	w.rec, w.stages = rec, map[string][]float64{}
	sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: filepath.Join(dir, "data")})
	if err != nil {
		return err
	}
	w.sys = sys
	for r := 0; r < weekRegions; r++ {
		fleet := genFleet(seed*100+int64(r), weekRegion(r), weekServers, weekWeeks)
		if _, err := sys.LoadFleet(fleet); err != nil {
			return err
		}
		w.fleets = append(w.fleets, fleet)
		// Weeks 0..2 give week 3 its evaluation history (Definition 9) and
		// the scheduler its previous-week verdicts.
		if _, err := sys.RunWeeks(weekRegion(r), 0, weekFirst-1, seagull.PipelineConfig{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *batchWeek) call(c callCtx) outcome {
	slot := int(c.n % weekCycle)
	region, week := weekRegion(slot%weekRegions), weekFirst+slot/weekRegions

	t0 := time.Now()
	root := w.rec.begin("call.region_week", c.id(), 0)
	sp := w.rec.begin("pipeline.run_week", c.id(), root)
	res, err := w.sys.RunWeek(seagull.PipelineConfig{Region: region, Week: week})
	w.rec.end(sp)
	var decisions []seagull.Decision
	if err == nil {
		sp = w.rec.begin("scheduler.schedule_week", c.id(), root)
		decisions, err = w.sys.ScheduleBackups(region, week)
		w.rec.end(sp)
	}
	w.rec.end(root)
	lat := time.Since(t0)
	if err != nil {
		return fail(weekServers, lat, "%s week %d: %v", region, week, err)
	}
	if root != 0 {
		for _, st := range res.StageTimings {
			w.stages[st.Stage] = append(w.stages[st.Stage], float64(st.Duration)/1e6)
		}
		w.stages["total"] = append(w.stages["total"], float64(res.Total)/1e6)
	}
	if res.Servers != weekServers || res.Predicted != weekServers || len(decisions) != weekServers {
		return fail(weekServers, lat, "%s week %d: %d servers, %d predicted, %d decisions, want %d of each",
			region, week, res.Servers, res.Predicted, len(decisions), weekServers)
	}
	d := resultDigest(res, decisions)
	if !w.seen[slot] {
		w.seen[slot], w.want[slot] = true, d
	} else if d != w.want[slot] {
		return fail(weekServers, lat, "%s week %d: result differs from the first run of the same week", region, week)
	}
	return outcome{lat: lat, ops: weekServers, attempted: weekServers}
}

// resultDigest hashes what the caller of the weekly job acts on: how many
// servers were predicted, the fleet accuracy summary and every decision.
func resultDigest(res *seagull.PipelineResult, decisions []seagull.Decision) uint64 {
	h := fnv.New64a()
	s := res.Summary
	// The mean is a float sum in map order, so its last bits are not a
	// function of the inputs; nine decimals are.
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%.9f|", res.Predicted, s.Servers, s.WindowsCorrect, s.WindowsAccurate,
		s.PredictableCount, s.MeanBucketRatio)
	for _, d := range decisions {
		fmt.Fprintf(h, "%s|%d|%s|%d|", d.ServerID, d.Start.Unix(), d.Source, d.PredLLStart)
	}
	return h.Sum64()
}

func (w *batchWeek) finish() outcome {
	for slot, ok := range w.seen {
		if !ok {
			return outcome{attempted: 1, failed: 1, why: fmt.Sprintf("(region, week) slot %d was never run", slot)}
		}
	}
	return outcome{}
}

func (w *batchWeek) counters() map[string]uint64 { return nil }

func (w *batchWeek) digest() uint64 {
	var d uint64
	for _, x := range w.want {
		d += x
	}
	return d
}

func (w *batchWeek) close() {
	if w.sys != nil {
		_ = w.sys.Close()
	}
}

func (w *batchWeek) layers(spans []span, _ map[string]uint64, ls *layerSet) {
	agg := byName(spans, "call.region_week")
	call := get(agg, "call.region_week").meanUs()
	sched := get(agg, "scheduler.schedule_week").meanUs()
	ls.set("client.rtt_us", call)
	ls.set("client.rtt_p99_us", get(agg, "call.region_week").p99Us())
	ls.set("scheduler.schedule_week_ms", sched/1e3)
	stage := func(name string) float64 { return mean(w.stages[name]) }
	ls.set("pipeline.ingestion_ms", stage("ingestion"))
	ls.set("pipeline.validation_ms", stage("validation"))
	ls.set("pipeline.features_ms", stage("feature-extraction"))
	ls.set("pipeline.deployment_ms", stage("model-deployment"))
	ls.set("pipeline.train_infer_ms", stage("train-infer"))
	ls.set("pipeline.accuracy_ms", stage("accuracy-evaluation"))
	ls.set("pipeline.total_ms", stage("total"))

	region, week := weekRegion(0), weekFirst
	store := w.sys.Lake
	size, err := store.Size(extractDataset, region, week)
	must(err)
	ls.set("lake.extract_bytes", float64(size))
	us, _ := probeUs(func() {
		rd, err := store.Reader(extractDataset, region, week)
		must(err)
		_, err = io.Copy(io.Discard, rd)
		must(err)
		must(rd.Close())
	})
	ls.set("lake.read_mb_per_s", float64(size)/1e6/(us/1e6))
	ingestUs, ingestAllocs := probeUs(func() {
		_, err := extractIngest(store, region, week, slot)
		must(err)
	})
	ls.set("extract.ingest_ms", ingestUs/1e3)
	validateUs, validateAllocs := probeUs(func() {
		rd, err := store.Reader(extractDataset, region, week)
		must(err)
		_, err = validateRows(rd, defaultSchema())
		must(err)
		must(rd.Close())
	})
	ls.set("validate.rows_ms", validateUs/1e3)
	load := w.fleets[0].Servers[0].Load()
	cfg := seagull.DefaultMetrics()
	us, _ = probeUs(func() {
		_, err := seagull.Classify(load, load.NumDays(), cfg)
		must(err)
	})
	ls.set("classify.categorize_us", us)
	cosmosProbes(ls, w.sys, region, docID(w.fleets[0].Servers[0].ID, week))
	modelProbes(ls, []seagull.Series{load}, false)

	// Budget: RunWeek's own stage timings under its span, with the probes of
	// the modules each stage calls; the scheduler beside it.
	ms := func(name string) float64 { return ls.m[name] * 1e3 }
	ls.row("client.rtt_us (one region-week)", 0, call, call, 0, "span")
	ls.row("pipeline.total_ms", 1, ms("pipeline.total_ms"), call, 0, "stats")
	ls.row("pipeline.ingestion_ms", 2, ms("pipeline.ingestion_ms"), call, 0, "stats")
	ls.row(fmt.Sprintf("extract.ingest_ms x %d weeks", weekFirst+1), 3, ingestUs*(weekFirst+1), call, ingestAllocs, "probe")
	ls.row("pipeline.validation_ms", 2, ms("pipeline.validation_ms"), call, 0, "stats")
	ls.row("validate.rows_ms", 3, validateUs, call, validateAllocs, "probe")
	ls.row("pipeline.features_ms", 2, ms("pipeline.features_ms"), call, 0, "stats")
	ls.row("pipeline.deployment_ms", 2, ms("pipeline.deployment_ms"), call, 0, "stats")
	ls.row("pipeline.train_infer_ms", 2, ms("pipeline.train_infer_ms"), call, 0, "stats")
	ls.row("pipeline.accuracy_ms", 2, ms("pipeline.accuracy_ms"), call, 0, "stats")
	ls.row("scheduler.schedule_week_ms", 1, sched, call, 0, "span")
	ls.unattributed(call, ms("pipeline.ingestion_ms")+ms("pipeline.validation_ms")+ms("pipeline.features_ms")+
		ms("pipeline.deployment_ms")+ms("pipeline.train_infer_ms")+ms("pipeline.accuracy_ms")+sched)
}
