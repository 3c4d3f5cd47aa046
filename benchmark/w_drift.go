package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"seagull"
)

// Frozen sizes of drift_refresh.
const (
	driftRegion   = "drift"
	driftServers  = 200
	driftWeeks    = 4  // weeks 0..3 are extracted; week 3 is run and holds the stored predictions under watch
	driftInjected = 10 // 5 % of the region carries an injected level shift on its backup day
	driftShift    = 35 // CPU points, far outside the +10/−5 acceptable bound
	// The ring retains eight weeks: four are prefilled, so the window keeps
	// every server's backup day and the week of history before it for at
	// least 12 000 five-minute rounds — far more than a run makes.
	driftSlots     = 2 * driftWeeks * 7 * pointsPerDay
	driftWarmCalls = 30
)

// driftMix has only stable servers, so that the servers found drifted are
// the injected ones on any seed; the check still computes the expected set
// independently rather than assuming it.
var driftMix = seagull.Mix{Stable: 1}

// driftRefresh is the paper's continuous re-evaluation loop, in process: each
// round appends the next five-minute point of every server, then sweeps the
// stored predictions for drift, drains the refresh queue and commits the WAL.
//
// One round is five minutes of telemetry, not the hour the issue sketched:
// the stored predictions stay judgeable only while their backup day and the
// week before it are inside the ring, and hour-long rounds would leave that
// window in a few hundred rounds.
type driftRefresh struct {
	sys   *seagull.System
	dur   *seagull.Durability
	rec   *recorder
	ctx   context.Context
	ids   []string
	loads []seagull.Series // the fleet's four weeks, replayed cyclically as live telemetry
	week  int

	expect   map[string]bool // servers whose live backup day misses the stored prediction
	injected map[string]bool
	rounds   int
	found    int // injected servers republished every round, set by finish
}

func (w *driftRefresh) clients() int { return 1 }

func (w *driftRefresh) setup(seed int64, dir string, rec *recorder) error {
	w.rec, w.ctx, w.week = rec, context.Background(), driftWeeks-1
	sys, err := seagull.NewSystem(seagull.SystemConfig{
		DataDir: filepath.Join(dir, "data"),
		Stream:  seagull.StreamConfig{Slots: driftSlots},
		Refresh: seagull.RefreshConfig{Workers: runtime.NumCPU()}, // as seagull-serve sets it
	})
	if err != nil {
		return err
	}
	w.sys = sys
	fleet := seagull.GenerateFleet(seagull.FleetConfig{
		Region: driftRegion, Servers: driftServers, Weeks: driftWeeks, Seed: seed, Mix: driftMix,
	})
	if _, err := sys.LoadFleet(fleet); err != nil {
		return err
	}
	// Only the watched week is run: its three history weeks come from the
	// lake, and the loop under test reads no earlier week's documents.
	if _, err := sys.RunWeek(seagull.PipelineConfig{Region: driftRegion, Week: w.week}); err != nil {
		return err
	}

	// Prefill the live rings with the same four weeks. The injected servers
	// are shifted on their backup day only: the week before it, which a
	// refresh retrains on, is unchanged, so the republished forecast misses
	// again and the server is found and refreshed on every round — the steady
	// state of a server whose load jumped on the day it was predicted for.
	w.injected, w.expect = map[string]bool{}, map[string]bool{}
	for k := 0; len(w.injected) < driftInjected; k++ {
		w.injected[fleet.Servers[mix64(uint64(seed)<<8^uint64(k))%driftServers].ID] = true
	}
	ing := sys.Stream()
	for _, srv := range fleet.Servers {
		load := srv.Load()
		if load.Len() != driftWeeks*7*pointsPerDay {
			return fmt.Errorf("server %s lived %d points, want the whole span", srv.ID, load.Len())
		}
		w.ids, w.loads = append(w.ids, srv.ID), append(w.loads, load)
		live := seagull.Series{Start: load.Start, Interval: load.Interval, Values: append([]float64(nil), load.Values...)}
		doc, day, err := w.backupDay(srv.ID, live)
		if err != nil {
			return err
		}
		if w.injected[srv.ID] {
			for k := range day.Values { // day aliases live
				day.Values[k] += driftShift
			}
		}
		if _, err := ing.AppendSeries(srv.ID, live.Start, live.Values); err != nil {
			return err
		}
		// Judged the way the paper defines drift — the bucket ratio of the
		// live day against the stored prediction under the accuracy
		// threshold — through the facade, not the detector under test.
		cfg := seagull.DefaultMetrics()
		ratio, err := seagull.BucketRatio(day, doc.Series(), cfg.Bound)
		if err != nil {
			return err
		}
		if ratio < cfg.AccuracyThreshold {
			w.expect[srv.ID] = true
		}
	}
	// WAL on, no tickers: the round commits explicitly.
	w.dur = sys.NewDurability(seagull.DurabilityConfig{SnapshotEvery: -1})
	if _, err := w.dur.Recover(); err != nil {
		return err
	}
	return w.dur.Open()
}

// backupDay returns a server's stored prediction for the watched week and a
// view of its predicted day inside live (sharing live's values).
func (w *driftRefresh) backupDay(id string, live seagull.Series) (seagull.PredictionDoc, seagull.Series, error) {
	var doc seagull.PredictionDoc
	if err := w.sys.DB.Collection("predictions").Get(driftRegion, docID(id, w.week), &doc); err != nil {
		return doc, seagull.Series{}, fmt.Errorf("no stored prediction for %s: %w", id, err)
	}
	at, ok := live.IndexOf(doc.BackupDay)
	if !ok {
		return doc, seagull.Series{}, fmt.Errorf("backup day of %s is outside its telemetry", id)
	}
	day, err := live.View(at, at+len(doc.Values))
	return doc, day, err
}

func docID(serverID string, week int) string { return fmt.Sprintf("%s/week-%04d", serverID, week) }

func (w *driftRefresh) call(c callCtx) outcome {
	ing, ref := w.sys.Stream(), w.sys.Refresher()
	span0 := driftWeeks * 7 * pointsPerDay
	k := span0 + int(c.n)
	at := fleetEpoch.Add(time.Duration(k) * slot)
	before := ref.Stats()

	t0 := time.Now()
	root := w.rec.begin("call.round", c.id(), 0)
	sp := w.rec.begin("stream.append", c.id(), root)
	for i, id := range w.ids {
		ing.Append(id, at, w.loads[i].Values[k%span0])
	}
	w.rec.end(sp)
	sp = w.rec.begin("stream.sweeper_round", c.id(), root)
	err := w.sys.Sweeper().SweepOnce(w.ctx)
	w.rec.end(sp)
	if err == nil {
		sp = w.rec.begin("stream.drain", c.id(), root)
		err = ref.Drain(w.ctx)
		w.rec.end(sp)
	}
	if err == nil {
		sp = w.rec.begin("stream.wal_commit", c.id(), root)
		err = w.dur.CommitNow()
		w.rec.end(sp)
	}
	w.rec.end(root)
	lat := time.Since(t0)
	w.rounds++

	if err != nil {
		return fail(driftServers, lat, "round %d: %v", c.n, err)
	}
	after := ref.Stats()
	if got := int(after.Refreshed - before.Refreshed); got != len(w.expect) || after.Failed != before.Failed || after.Skipped != before.Skipped {
		return fail(driftServers, lat, "round %d: republished %d predictions, want %d (failed %d, skipped %d)",
			c.n, got, len(w.expect), after.Failed-before.Failed, after.Skipped-before.Skipped)
	}
	return outcome{lat: lat, ops: driftServers, attempted: driftServers}
}

// finish reads every stored prediction back: a server whose live day misses
// its prediction must have been republished once per round, and no other
// document may have been rewritten.
func (w *driftRefresh) finish() outcome {
	out := outcome{attempted: driftServers}
	col := w.sys.DB.Collection("predictions")
	for _, id := range w.ids {
		var doc seagull.PredictionDoc
		if err := col.Get(driftRegion, docID(id, w.week), &doc); err != nil {
			out.failed++
			out.why = err.Error()
			continue
		}
		want := 0
		if w.expect[id] {
			want = w.rounds
		}
		if doc.Refreshes != want {
			out.failed++
			out.why = fmt.Sprintf("%s was republished %d times over %d rounds, want %d", id, doc.Refreshes, w.rounds, want)
		} else if w.injected[id] {
			w.found++
		}
	}
	return out
}

func (w *driftRefresh) counters() map[string]uint64 {
	return map[string]uint64{"refresh.dropped": w.sys.Refresher().Stats().Dropped}
}

// digest covers the republished forecasts of the injected servers.
func (w *driftRefresh) digest() uint64 {
	var d uint64
	for _, id := range w.ids {
		if !w.injected[id] {
			continue
		}
		var doc seagull.PredictionDoc
		if err := w.sys.DB.Collection("predictions").Get(driftRegion, docID(id, w.week), &doc); err == nil {
			fold(&d, id, doc.Values)
		}
	}
	return d
}

func (w *driftRefresh) close() {
	if w.sys != nil {
		_ = w.sys.Close()
	}
}

func (w *driftRefresh) layers(spans []span, counted map[string]uint64, ls *layerSet) {
	agg := byName(spans, "call.round")
	call := get(agg, "call.round").meanUs()
	ls.set("client.rtt_us", call)
	ls.set("client.rtt_p99_us", get(agg, "call.round").p99Us())
	ls.set("stream.sweeper_round_ms", get(agg, "stream.sweeper_round").meanUs()/1e3)
	ls.set("stream.drain_ms", get(agg, "stream.drain").meanUs()/1e3)
	ls.set("stream.wal_commit_ms", get(agg, "stream.wal_commit").meanUs()/1e3)
	ls.set("stream.refresh_dropped", float64(counted["refresh.dropped"]))
	ls.set("stream.drift_hit_ratio", float64(w.found)/driftInjected)

	ing, det, ref := w.sys.Stream(), w.sys.Drift(), w.sys.Refresher()
	sweepUs, sweepAllocs := probeUs(func() {
		_, err := det.Sweep(w.ctx, driftRegion, w.week)
		must(err)
	})
	ls.set("stream.sweep_ms", sweepUs/1e3)
	ls.set("stream.sweep_checked_per_s", driftServers/(sweepUs/1e6))
	var drifted string
	for _, id := range w.ids {
		if w.expect[id] {
			drifted = id
			break
		}
	}
	refreshUs, refreshAllocs := probeUs(func() { must(ref.RefreshServer(w.ctx, driftRegion, drifted, w.week)) })
	ls.set("stream.refresh_server_us", refreshUs)
	// Append walks on from where the rounds stopped.
	k := driftWeeks*7*pointsPerDay + w.rounds + driftWarmCalls + 1
	n := 0
	appendNs, _ := probe(probeBudget, func() {
		ing.Append(w.ids[n%len(w.ids)], fleetEpoch.Add(time.Duration(k+n/len(w.ids))*slot), 20)
		n++
	})
	ls.set("stream.append_ns", appendNs)
	var buf []float64
	us, _ := probeUs(func() {
		snap, _ := ing.SnapshotInto(drifted, buf)
		buf = snap.Values
	})
	ls.set("stream.view_us", us)
	cosmosProbes(ls, w.sys, driftRegion, docID(drifted, w.week))
	modelProbes(ls, []seagull.Series{w.loads[0]}, false)

	// Budget: the four spans make up the round; under them, what the probes
	// say the same work costs when called directly.
	commit := get(agg, "stream.wal_commit").meanUs()
	ls.row("client.rtt_us (one round)", 0, call, call, 0, "span")
	ls.row("stream.append (200 points)", 1, get(agg, "stream.append").meanUs(), call, 0, "span")
	ls.row("stream.append_ns x 200", 2, appendNs*driftServers/1e3, call, 0, "probe")
	ls.row("stream.sweeper_round_ms", 1, get(agg, "stream.sweeper_round").meanUs(), call, 0, "span")
	ls.row("stream.sweep_ms", 2, sweepUs, call, sweepAllocs, "probe")
	ls.row("cosmos.query_ms", 3, ls.m["cosmos.query_ms"]*1e3, call, 0, "probe")
	ls.row("stream.drain_ms", 1, get(agg, "stream.drain").meanUs(), call, 0, "span")
	ls.row(fmt.Sprintf("stream.refresh_server_us x %d", len(w.expect)), 2, refreshUs*float64(len(w.expect)), call, refreshAllocs, "probe")
	ls.row("stream.wal_commit_ms", 1, commit, call, 0, "span")
	ls.unattributed(call, appendNs*driftServers/1e3+sweepUs+refreshUs*float64(len(w.expect))+commit)
}

// cosmosProbes times the document store on one region's stored predictions.
// Upserts go to a partition of their own so the region under test is left as
// the run wrote it.
func cosmosProbes(ls *layerSet, sys *seagull.System, region, id string) {
	col := sys.DB.Collection("predictions")
	var doc seagull.PredictionDoc
	us, _ := probeUs(func() { must(col.Get(region, id, &doc)) })
	ls.set("cosmos.get_us", us)
	us, _ = probeUs(func() { must(col.Upsert("benchmark-probe", id, &doc)) })
	ls.set("cosmos.upsert_us", us)
	docs, bytes := 0, 0
	us, _ = probeUs(func() {
		docs, bytes = 0, 0
		must(col.Query(region, func(_ string, body json.RawMessage) error {
			docs++
			bytes += len(body)
			return nil
		}))
	})
	ls.set("cosmos.query_ms", us/1e3)
	ls.set("cosmos.doc_bytes", float64(bytes)/float64(max(docs, 1)))
}
