package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"seagull"
)

// Frozen sizes of ingest_wire.
const (
	ingestServers  = 1024 // the streaming fleet
	ingestGroup    = 64   // servers per ingest call
	ingestPoints   = 12   // consecutive five-minute points per server per call: one hour
	ingestCallPts  = ingestGroup * ingestPoints
	ingestGroups   = ingestServers / ingestGroup
	clientGroups   = ingestGroups / clientCount // each client walks its own groups forward
	ingestPrefill  = 7                          // days of telemetry already in the rings
	dupEvery       = 20                         // 5 % of ingest calls re-send the previous hour of their group
	pointsEvery    = 20                         // 5 % use the out-of-order `points` form
	liveEvery      = 8                          // every 8th call is a live_history predict instead
	walCommitEvery = 100 * time.Millisecond     // δ, the production default
	snapshotEvery  = 5 * time.Second            // production is 30 s; 5 s puts snapshots inside the window
	// The closed loop writes an hour of telemetry per call, some 10^5 times
	// the production point rate, so each shard's WAL buffer is sized for that
	// rate: the default 4096 entries overflow during one snapshot stall and
	// the dropped points are then, by design, lost to a hard kill.
	walBufferEntries = 65536
	ingestWarmCalls  = 64
)

// ingestStart is the first slot the wire traffic writes: right after the
// prefilled week.
var ingestStart = fleetEpoch.Add(ingestPrefill * 24 * time.Hour)

// ingestWire drives routed /v2/ingest into two replicas with WAL and
// snapshots running, with live predicts beside the writes, and afterwards
// abandons the replicas and recovers fresh ones from the same lake.
type ingestWire struct {
	seed  int64
	dir   string
	fleet *httpFleet
	conns []*wireClient
	rec   *recorder
	state []ingestClient // one per client

	accepted, duplicates atomic.Int64 // acknowledged over the wire, warm-up included
	sheds                atomic.Int64
	base                 [replicaCount]struct{ appended, duplicates uint64 } // ingestor counters after prefill

	recovery recoveryResult
}

// ingestClient is one client's position in its walk.
type ingestClient struct {
	ingests uint64 // ingest calls made
	fresh   uint64 // fresh (group, hour) batches sent
	digest  uint64
}

type recoveryResult struct {
	ms     float64
	points int
	lost   int
}

func (w *ingestWire) clients() int { return clientCount }

func (w *ingestWire) setup(seed int64, dir string, rec *recorder) error {
	w.seed, w.dir, w.rec = seed, dir, rec
	dcfg := seagull.DurabilityConfig{CommitEvery: walCommitEvery, SnapshotEvery: snapshotEvery, BufferEntries: walBufferEntries}
	reps := make([]*replica, replicaCount)
	for i := range reps {
		rep, err := newReplica(replicaName(i), filepath.Join(dir, "data"), predictRegion, wireModel, true, dcfg)
		if err != nil {
			return err
		}
		reps[i] = rep
	}
	var err error
	if w.fleet, err = newHTTPFleet(reps, rec); err != nil {
		return err
	}
	// Prefill every ring with a week of telemetry on its owner, then start
	// durability and take the baseline snapshot: the state of a replica that
	// has been up for a week.
	vals := make([]float64, ingestPrefill*pointsPerDay)
	for s := 0; s < ingestServers; s++ {
		id := streamServerID(s)
		for k := range vals {
			vals[k] = telemetry(seed, s, int64(k))
		}
		if _, err := w.fleet.mustOwner(id).sys.Stream().AppendSeries(id, fleetEpoch, vals); err != nil {
			return err
		}
	}
	for i, rep := range reps {
		ctx, cancel := context.WithCancel(context.Background())
		rep.stop = cancel
		if err := rep.dur.Start(ctx); err != nil {
			return err
		}
		if _, err := rep.dur.SnapshotNow(); err != nil {
			return err
		}
		st := rep.sys.Stream().Stats()
		w.base[i].appended, w.base[i].duplicates = st.Appended, st.Duplicates
	}
	w.conns = make([]*wireClient, clientCount)
	for c := range w.conns {
		w.conns[c] = newWireClient(w.fleet.url)
	}
	w.state = make([]ingestClient, clientCount)
	return nil
}

// batch describes the fresh batch with ordinal f of client c: which group
// and which hour.
func batchOf(c int, f uint64) (group int, hour int64) {
	return int(f%clientGroups)*clientCount + c, int64(f / clientGroups)
}

// ingestBody encodes one (group, hour) batch, in series form or, shuffled, in
// points form.
func (w *ingestWire) ingestBody(group int, hour int64, asPoints bool) []byte {
	start := ingestStart.Add(time.Duration(hour) * time.Hour)
	slot0 := int64(ingestPrefill*pointsPerDay) + hour*ingestPoints
	var req ingestReq
	if !asPoints {
		req.Servers = make([]ingestSeries, ingestGroup)
		for k := range req.Servers {
			s := group*ingestGroup + k
			vals := make([]float64, ingestPoints)
			for j := range vals {
				vals[j] = telemetry(w.seed, s, slot0+int64(j))
			}
			req.Servers[k] = ingestSeries{ServerID: streamServerID(s), Start: start, IntervalMin: 5, Values: vals}
		}
	} else {
		// Newest first and server-interleaved: every point arrives before
		// the one that precedes it in time.
		req.Points = make([]ingestPoint, 0, ingestCallPts)
		for j := ingestPoints - 1; j >= 0; j-- {
			for k := 0; k < ingestGroup; k++ {
				s := group*ingestGroup + k
				req.Points = append(req.Points, ingestPoint{
					ServerID: streamServerID(s),
					TimeUnix: start.Add(time.Duration(j) * slot).Unix(),
					Value:    telemetry(w.seed, s, slot0+int64(j)),
				})
			}
		}
	}
	body, err := json.Marshal(req)
	must(err)
	return body
}

func (w *ingestWire) call(c callCtx) outcome {
	st := &w.state[c.client]
	if c.n%liveEvery == liveEvery-1 && st.fresh > 0 {
		return w.livePredict(c, st)
	}
	k := st.ingests
	st.ingests++
	dup := k%dupEvery == dupEvery/2 && st.fresh >= clientGroups
	var f uint64
	if dup {
		f = st.fresh - clientGroups // the same group's previous hour
	} else {
		f = st.fresh
		st.fresh++
	}
	group, hour := batchOf(c.client, f)
	body := w.ingestBody(group, hour, k%pointsEvery == pointsEvery/4)

	var resp ingestResp
	t0 := time.Now()
	sp := w.rec.begin("client.ingest", c.id(), 0)
	err := w.conns[c.client].post("/v2/ingest", body, c.id(), sp, &resp)
	w.rec.end(sp)
	lat := time.Since(t0)
	if err != nil {
		if shed(err) {
			w.sheds.Add(1)
		}
		return fail(ingestCallPts, lat, "ingest group %d hour %d: %v", group, hour, err)
	}
	w.accepted.Add(int64(resp.Accepted))
	w.duplicates.Add(int64(resp.Duplicates))
	wantAcc, wantDup := ingestCallPts, 0
	if dup {
		wantAcc, wantDup = 0, ingestCallPts
	}
	if resp.Accepted != wantAcc || resp.Duplicates != wantDup ||
		resp.TooOld+resp.TooNew+resp.BadValues+resp.Skipped != 0 {
		bad := ingestCallPts - min(resp.Accepted, wantAcc) - min(resp.Duplicates, wantDup)
		return outcome{lat: lat, ops: resp.Accepted, attempted: ingestCallPts, failed: bad,
			why: fmt.Sprintf("ingest group %d hour %d (dup=%v): tallies %+v", group, hour, dup, resp)}
	}
	if f < digestCalls {
		st.digest += mix64(uint64(group)<<32 ^ uint64(hour)<<8 ^ uint64(resp.Accepted))
	}
	return outcome{lat: lat, ops: resp.Accepted, attempted: ingestCallPts}
}

// livePredict asks for a forecast from the ring the client has just written.
func (w *ingestWire) livePredict(c callCtx, st *ingestClient) outcome {
	group, _ := batchOf(c.client, st.fresh-1)
	id := streamServerID(group*ingestGroup + int(c.n/liveEvery)%ingestGroup)
	body, err := json.Marshal(predictReq{
		Scenario: scenario, Region: predictRegion, ServerID: id,
		LiveHistory: true, Horizon: horizon, WindowPoints: windowPoints,
	})
	must(err)
	var resp predictResp
	t0 := time.Now()
	sp := w.rec.begin("client.live_predict", c.id(), 0)
	err = w.conns[c.client].post("/v2/predict", body, c.id(), sp, &resp)
	w.rec.end(sp)
	lat := time.Since(t0)
	out := outcome{lat: lat, attempted: 1, aside: true}
	switch {
	case err != nil:
		if shed(err) {
			w.sheds.Add(1)
		}
		out.why = fmt.Sprintf("live predict %s: %v", id, err)
	case resp.Model != wireModel || len(resp.Forecast.Values) != horizon ||
		resp.LLStart < 0 || resp.LLStart > horizon-windowPoints:
		out.why = fmt.Sprintf("live predict %s: bad shape (model %s, %d points, ll %d)", id, resp.Model, len(resp.Forecast.Values), resp.LLStart)
	default:
		for _, v := range resp.Forecast.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				out.why = "live predict " + id + ": non-finite forecast"
			}
		}
	}
	if out.why != "" {
		out.failed = 1
	}
	return out
}

// finish checks the wire tallies against the replicas' own counters, then
// plays a hard kill: after a last commit the replicas are abandoned without
// Close, fresh ingestors recover from the same lake, and every point the old
// rings hold must be readable from the new ones.
func (w *ingestWire) finish() outcome {
	out := outcome{attempted: 1}
	var appended, dups uint64
	for i, rep := range w.fleet.reps {
		st := rep.sys.Stream().Stats()
		appended += st.Appended - w.base[i].appended
		dups += st.Duplicates - w.base[i].duplicates
	}
	if int64(appended) != w.accepted.Load() || int64(dups) != w.duplicates.Load() {
		out.failed, out.why = 1, fmt.Sprintf("replicas appended %d and deduplicated %d points, the wire acknowledged %d and %d",
			appended, dups, w.accepted.Load(), w.duplicates.Load())
		return out
	}
	for _, rep := range w.fleet.reps {
		if err := rep.dur.CommitNow(); err != nil {
			out.failed, out.why = 1, "last commit: "+err.Error()
			return out
		}
		rep.stop() // tickers off; deliberately no Close
	}
	for _, rep := range w.fleet.reps {
		res, err := recoverAndCompare(filepath.Join(w.dir, "data"), rep)
		if err != nil {
			out.failed, out.why = 1, "recover "+rep.name+": "+err.Error()
			return out
		}
		w.recovery.ms += res.ms / replicaCount
		w.recovery.points += res.points
		w.recovery.lost += res.lost
	}
	if w.recovery.lost > 0 {
		out.failed, out.why = 1, fmt.Sprintf("%d acknowledged points missing after recovery", w.recovery.lost)
	}
	return out
}

// recoverAndCompare boots a fresh system on the replica's namespace, times
// Recover, and counts the points of the old rings the new rings lack.
func recoverAndCompare(dataDir string, old *replica) (recoveryResult, error) {
	var res recoveryResult
	sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: dataDir, Replica: old.name})
	if err != nil {
		return res, err
	}
	defer sys.Close()
	dur := sys.NewDurability(seagull.DurabilityConfig{CommitEvery: walCommitEvery, SnapshotEvery: snapshotEvery})
	t0 := time.Now()
	rec, err := dur.Recover()
	res.ms = float64(time.Since(t0)) / 1e6
	if err != nil {
		return res, err
	}
	if rec.Degraded() {
		return res, fmt.Errorf("partial recovery: %s", rec.String())
	}
	oldIng, newIng := old.sys.Stream(), sys.Stream()
	var a, b []float64
	for _, id := range oldIng.Servers() {
		was, _ := oldIng.SnapshotInto(id, a)
		now, ok := newIng.SnapshotInto(id, b)
		a, b = was.Values, now.Values
		for k, v := range was.Values {
			if math.IsNaN(v) {
				continue
			}
			res.points++
			at := was.TimeAt(k)
			j, inRange := now.IndexOf(at)
			if !ok || !inRange || math.Float64bits(now.Values[j]) != math.Float64bits(v) {
				res.lost++
			}
		}
	}
	return res, nil
}

func (w *ingestWire) counters() map[string]uint64 {
	c := map[string]uint64{}
	for _, rep := range w.fleet.reps {
		st := rep.dur.Stats()
		c["wal.records"] += st.CommitRecords
		c["wal.bytes"] += st.CommitBytes
		c["wal.dropped"] += st.Dropped
		c["snapshots"] += st.Snapshots
	}
	return c
}

func (w *ingestWire) digest() uint64 {
	var d uint64
	for i := range w.state {
		d += w.state[i].digest
	}
	return d
}

func (w *ingestWire) close() {
	for _, c := range w.conns {
		c.close()
	}
	if w.fleet != nil {
		w.fleet.close()
	}
}

func (w *ingestWire) layers(spans []span, counted map[string]uint64, ls *layerSet) {
	rep := w.fleet.reps[0]
	svc, ing := rep.svc, rep.sys.Stream()
	ctx := context.Background()

	// The servers of group 0 that replica 0 owns, and the hour after the last
	// one any client wrote: fresh sub-batches exactly as the router would
	// hand them to this replica.
	var owned []int
	for s := 0; s < ingestGroup; s++ {
		if w.fleet.mustOwner(streamServerID(s)) == rep {
			owned = append(owned, s)
		}
	}
	hour := int64(max(w.state[0].fresh, w.state[1].fresh)/clientGroups) + 1
	nextSub := func() svcIngestRequest {
		var full, sub svcIngestRequest
		must(json.Unmarshal(w.ingestBody(0, hour, false), &full))
		hour++
		for _, s := range owned {
			sub.Servers = append(sub.Servers, full.Servers[s])
		}
		return sub
	}

	wp := jsonProbes[svcIngestRequest, svcIngestResponse](rep.tap.get("/v2/ingest"))
	wp.inprocName = "serving.ingest_inproc_us"
	// Fresh points every iteration, prepared outside the timed call.
	var inproc []float64
	for i := 0; i < 200; i++ {
		sub := nextSub()
		t0 := time.Now()
		_, serr := svc.Ingest(ctx, sub)
		inproc = append(inproc, float64(time.Since(t0))/1e3)
		if serr != nil {
			panic(serr)
		}
	}
	wp.inprocUs = median(inproc)
	wireLayers(ls, spans, "client.ingest", wp)
	ls.set("admission.shed_count", float64(w.sheds.Load()))
	smallProbes(ls, w.fleet, wireModel, []string{streamServerID(0)})

	liveID := streamServerID(owned[0])
	us, _ := probeUs(func() {
		var req svcPredictRequest
		req.Scenario, req.Region, req.ServerID = scenario, predictRegion, liveID
		req.LiveHistory, req.Horizon, req.WindowPoints = true, horizon, windowPoints
		if _, serr := svc.Predict(ctx, req); serr != nil {
			panic(serr)
		}
	})
	ls.set("serving.live_predict_inproc_us", us)

	// Ring probes on owned servers, walking forward from the probe hour.
	at := ingestStart.Add(time.Duration(hour) * time.Hour)
	k := 0
	ns, _ := probe(probeBudget, func() {
		ing.Append(streamServerID(owned[k%len(owned)]), at.Add(time.Duration(k/len(owned))*slot), 42)
		k++
	})
	ls.set("stream.append_ns", ns)
	at = at.Add(time.Duration(k/len(owned)+1) * slot)
	series := make([]float64, ingestPoints)
	for i := range series {
		series[i] = 40 + float64(i)
	}
	k = 0
	us, _ = probeUs(func() {
		_, _ = ing.AppendSeries(streamServerID(owned[k%len(owned)]), at.Add(time.Duration(k/len(owned))*time.Hour), series)
		k++
	})
	ls.set("stream.append_series_us", us)
	at = at.Add(time.Duration(k/len(owned)+1) * time.Hour)

	// SnapshotInto while a writer keeps appending to the same replica.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ing.Append(streamServerID(owned[1+i%(len(owned)-1)]), at.Add(time.Duration(i/len(owned))*slot), 41)
			}
		}
	}()
	var buf []float64
	us, _ = probeUs(func() {
		snap, _ := ing.SnapshotInto(liveID, buf)
		buf = snap.Values
	})
	close(stop)
	wg.Wait()
	ls.set("stream.view_us", us)

	// CommitNow after one call's points; SnapshotNow after one hour for the
	// whole replica.
	hour += 24 * 365 // clear of everything the ring probes wrote
	var commits, snaps []float64
	for i := 0; i < 15; i++ {
		if _, serr := svc.Ingest(ctx, nextSub()); serr != nil {
			panic(serr)
		}
		t0 := time.Now()
		must(rep.dur.CommitNow())
		commits = append(commits, float64(time.Since(t0))/1e6)
	}
	for i := 0; i < 3; i++ {
		if _, serr := svc.Ingest(ctx, nextSub()); serr != nil {
			panic(serr)
		}
		t0 := time.Now()
		_, err := rep.dur.SnapshotNow()
		must(err)
		snaps = append(snaps, float64(time.Since(t0))/1e6)
	}
	ls.set("stream.wal_commit_ms", median(commits))
	ls.set("stream.snapshot_ms", median(snaps))

	if n := counted["wal.records"]; n > 0 {
		ls.set("stream.wal_bytes_per_point", float64(counted["wal.bytes"])/float64(n))
	}
	ls.set("stream.wal_dropped", float64(counted["wal.dropped"]))
	ls.set("stream.snapshots", float64(counted["snapshots"]))
	ls.set("stream.recover_ms", w.recovery.ms)
	if w.recovery.ms > 0 {
		ls.set("stream.recover_points_per_s", float64(w.recovery.points)/replicaCount/(w.recovery.ms/1e3))
	}
	ls.set("stream.lost_acked_points", float64(w.recovery.lost))
}
