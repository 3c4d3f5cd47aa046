package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"seagull"
)

// Frozen sizes of the two predict workloads.
const (
	predictRegion  = "bench"
	historyDays    = 7   // inline history: 2016 five-minute points
	horizon        = 288 // 24 hours ahead
	windowPoints   = 12  // one-hour lowest-load window
	wireServers    = 256 // predict_wire cycles over this many fleet servers
	batchServers   = 512 // predict_batch_train draws from this many
	batchWidth     = 16  // servers per batch call
	checkEvery     = 64  // every n-th call is compared bit-for-bit with the reference service
	digestCalls    = 32  // each client's first calls feed the digest
	replicaCount   = 2
	clientCount    = 2 // nproc here; one keep-alive connection each
	wireModel      = seagull.ModelPersistentPrevDay
	batchModel     = seagull.ModelSSA
	modelVersionV1 = 1 // the benchmark deploys each model once
)

// predictFleet is what both predict workloads share: the routed deployment,
// a reference service for the bit-for-bit check, the fleet's histories and
// the closed-loop clients.
type predictFleet struct {
	model   string
	fleet   *httpFleet
	refSys  *seagull.System
	ref     *seagull.Service
	ids     []string
	hist    []seagull.Series
	conns   []*wireClient
	rec     *recorder
	sheds   atomic.Int64
	digests []uint64 // one accumulator per client
}

func (p *predictFleet) setupFleet(seed int64, dir, model string, servers int, rec *recorder) error {
	p.model, p.rec = model, rec
	p.ids, p.hist = fleetHistories(seed, servers, historyDays)
	reps := make([]*replica, replicaCount)
	for i := range reps {
		rep, err := newReplica(replicaName(i), filepath.Join(dir, "data"), predictRegion, model, false, seagull.DurabilityConfig{})
		if err != nil {
			return err
		}
		reps[i] = rep
	}
	var err error
	if p.fleet, err = newHTTPFleet(reps, rec); err != nil {
		return err
	}
	if p.refSys, err = seagull.NewSystem(seagull.SystemConfig{DataDir: filepath.Join(dir, "ref")}); err != nil {
		return err
	}
	p.refSys.Registry.Deploy(deployTarget{Scenario: scenario, Region: predictRegion}, model, "benchmark reference")
	p.ref = p.refSys.Service(seagull.ServiceConfig{})
	p.conns = make([]*wireClient, clientCount)
	for c := range p.conns {
		p.conns[c] = newWireClient(p.fleet.url)
	}
	p.digests = make([]uint64, clientCount)
	return nil
}

func replicaName(i int) string { return string(rune('a'+i)) + "-shard" }

func (p *predictFleet) clients() int { return clientCount }

func (p *predictFleet) finish() outcome { return outcome{} }

func (p *predictFleet) close() {
	for _, c := range p.conns {
		c.close()
	}
	if p.fleet != nil {
		p.fleet.close()
	}
	if p.ref != nil {
		p.ref.Close()
	}
	if p.refSys != nil {
		_ = p.refSys.Close()
	}
}

func (p *predictFleet) history(i int) seriesJSON {
	h := p.hist[i]
	return seriesJSON{Start: h.Start, IntervalMin: int(h.Interval / time.Minute), Values: h.Values}
}

// checkShape is the per-reply check: the expected model and version, 288
// finite points that start where the history ends, and a lowest-load window
// inside the day.
func (p *predictFleet) checkShape(i int, model string, version int, fc *seriesJSON, llStart int) string {
	switch {
	case model != p.model || version != modelVersionV1:
		return "served by " + model
	case fc == nil || len(fc.Values) != horizon:
		return "forecast is not 288 points"
	case !fc.Start.Equal(p.hist[i].End()):
		return "forecast does not start where the history ends"
	case llStart < 0 || llStart > horizon-windowPoints:
		return "lowest-load window out of range"
	}
	for _, v := range fc.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "forecast has a non-finite point"
		}
	}
	return ""
}

// reference asks the in-process reference service for server i's forecast.
func (p *predictFleet) reference(i int) (svcPredictResponse, error) {
	h := p.history(i)
	var req svcPredictRequest
	req.Scenario, req.Region, req.ServerID = scenario, predictRegion, p.ids[i]
	req.History.Start, req.History.IntervalMin, req.History.Values = h.Start, h.IntervalMin, h.Values
	req.Horizon, req.WindowPoints = horizon, windowPoints
	resp, serr := p.ref.Predict(context.Background(), req)
	if serr != nil {
		return resp, serr
	}
	return resp, nil
}

// sameForecast compares a wire forecast with the reference bit for bit.
func sameForecast(got []float64, gotLL int, gotAvg float64, want svcPredictResponse) bool {
	if len(got) != len(want.Forecast.Values) || gotLL != want.LLStart ||
		math.Float64bits(gotAvg) != math.Float64bits(want.LLAvg) {
		return false
	}
	for k, v := range got {
		if math.Float64bits(v) != math.Float64bits(want.Forecast.Values[k]) {
			return false
		}
	}
	return true
}

// fold mixes one checked forecast into a client's digest; a sum keeps the
// digest independent of call interleaving.
func fold(acc *uint64, server string, vals []float64) {
	h := fnv.New64a()
	h.Write([]byte(server))
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	*acc += h.Sum64()
}

func (p *predictFleet) digest() uint64 {
	var d uint64
	for _, x := range p.digests {
		d += x
	}
	return d
}

func (p *predictFleet) counters() map[string]uint64 {
	c := map[string]uint64{}
	for _, rep := range p.fleet.reps {
		st := rep.svc.Pool().Stats()
		c["pool.hits"] += st.Hits
		c["pool.misses"] += st.Misses
	}
	return c
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// --- predict_wire ---

type predictWire struct {
	predictFleet
	bodies [][]byte // one pre-encoded request per server
}

func (w *predictWire) setup(seed int64, dir string, rec *recorder) error {
	if err := w.setupFleet(seed, dir, wireModel, wireServers, rec); err != nil {
		return err
	}
	w.bodies = make([][]byte, wireServers)
	for i := range w.bodies {
		h := w.history(i)
		body, err := json.Marshal(predictReq{
			Scenario: scenario, Region: predictRegion, ServerID: w.ids[i],
			History: &h, Horizon: horizon, WindowPoints: windowPoints,
		})
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	return nil
}

func (w *predictWire) call(c callCtx) outcome {
	i := int((c.n*clientCount + uint64(c.client)) % wireServers)
	var resp predictResp
	t0 := time.Now()
	sp := w.rec.begin("client.predict", c.id(), 0)
	err := w.conns[c.client].post("/v2/predict", w.bodies[i], c.id(), sp, &resp)
	w.rec.end(sp)
	lat := time.Since(t0)
	if err != nil {
		if shed(err) {
			w.sheds.Add(1)
		}
		return fail(1, lat, "predict %s: %v", w.ids[i], err)
	}
	if resp.ServerID != w.ids[i] {
		return fail(1, lat, "predict %s: reply is for %q", w.ids[i], resp.ServerID)
	}
	if why := w.checkShape(i, resp.Model, resp.Version, &resp.Forecast, resp.LLStart); why != "" {
		return fail(1, lat, "predict %s: %s", w.ids[i], why)
	}
	if c.n%checkEvery == 0 {
		want, err := w.reference(i)
		if err != nil || !sameForecast(resp.Forecast.Values, resp.LLStart, resp.LLAvg, want) {
			return fail(1, lat, "predict %s: differs from the in-process reference (%v)", w.ids[i], err)
		}
	}
	if c.n < digestCalls {
		fold(&w.digests[c.client], w.ids[i], resp.Forecast.Values)
	}
	return outcome{lat: lat, ops: 1, attempted: 1}
}

func (w *predictWire) layers(spans []span, counted map[string]uint64, ls *layerSet) {
	svc := w.fleet.reps[0].svc
	replayLayers[svcPredictRequest, svcPredictResponse](&w.predictFleet, spans, counted, ls,
		"/v2/predict", "client.predict", "serving.predict_inproc_us", w.ids[:1],
		func(req svcPredictRequest) {
			if _, serr := svc.Predict(context.Background(), req); serr != nil {
				panic(serr)
			}
		})
	modelProbes(ls, w.hist[:8], false)
}

// --- predict_batch_train ---

type predictBatch struct {
	predictFleet
	bodies [][]byte // one pre-encoded request per group of 16 consecutive servers
}

func (w *predictBatch) setup(seed int64, dir string, rec *recorder) error {
	if err := w.setupFleet(seed, dir, batchModel, batchServers, rec); err != nil {
		return err
	}
	w.bodies = make([][]byte, batchServers/batchWidth)
	for g := range w.bodies {
		req := batchReq{Scenario: scenario, Region: predictRegion, Servers: make([]batchItem, batchWidth)}
		for k := range req.Servers {
			i := g*batchWidth + k
			req.Servers[k] = batchItem{ServerID: w.ids[i], History: w.history(i), Horizon: horizon, WindowPoints: windowPoints}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.bodies[g] = body
	}
	return nil
}

func (w *predictBatch) call(c callCtx) outcome {
	// Consecutive groups of 16: the two clients never hold the same server
	// and no history repeats until the whole fleet has been walked, so the
	// per-instance train memo never hits.
	group := int((c.n*clientCount + uint64(c.client)) % uint64(len(w.bodies)))
	first := group * batchWidth
	var resp batchResp
	t0 := time.Now()
	sp := w.rec.begin("client.batch", c.id(), 0)
	err := w.conns[c.client].post("/v2/predict/batch", w.bodies[group], c.id(), sp, &resp)
	w.rec.end(sp)
	lat := time.Since(t0)
	if err != nil {
		if shed(err) {
			w.sheds.Add(1)
		}
		return fail(batchWidth, lat, "batch at %s: %v", w.ids[first], err)
	}
	if len(resp.Results) != batchWidth {
		return fail(batchWidth, lat, "batch at %s: %d results", w.ids[first], len(resp.Results))
	}
	out := outcome{lat: lat, attempted: batchWidth}
	for k, r := range resp.Results {
		i := first + k
		why := ""
		switch {
		case r.ServerID != w.ids[i]:
			why = "result out of order"
		case len(r.Error) > 0 && string(r.Error) != "null":
			why = "item error " + string(r.Error)
		default:
			why = w.checkShape(i, resp.Model, resp.Version, r.Forecast, r.LLStart)
		}
		if why != "" {
			out.failed++
			out.why = "batch item " + w.ids[i] + ": " + why
			continue
		}
		out.ops++
	}
	if c.n%checkEvery == 0 && out.failed == 0 {
		// One SSA retrain on the reference service, not sixteen: the check
		// must not become the workload.
		k := int(c.n/checkEvery) % batchWidth
		r := resp.Results[k]
		want, err := w.reference(first + k)
		if err != nil || !sameForecast(r.Forecast.Values, r.LLStart, r.LLAvg, want) {
			out.ops, out.failed = out.ops-1, 1
			out.why = "batch item " + r.ServerID + ": differs from the in-process reference"
		}
	}
	if c.n < digestCalls && out.failed == 0 {
		for _, r := range resp.Results {
			fold(&w.digests[c.client], r.ServerID, r.Forecast.Values)
		}
	}
	return out
}

func (w *predictBatch) layers(spans []span, counted map[string]uint64, ls *layerSet) {
	svc := w.fleet.reps[0].svc
	replayLayers[svcBatchRequest, svcBatchResponse](&w.predictFleet, spans, counted, ls,
		"/v2/predict/batch", "client.batch", "serving.batch_inproc_us", w.ids[:batchWidth],
		func(req svcBatchRequest) {
			if _, serr := svc.PredictBatch(context.Background(), req); serr != nil {
				panic(serr)
			}
		})
	modelProbes(ls, w.hist[:8], true)
	ns, _ := probe(probeBudget, func() {
		_ = newWorkerPool(0).ForEach(batchWidth, func(int) error { return nil })
	})
	ls.set("parallel.foreach_overhead_us", ns/1e3)
}

// replayLayers is the traced analysis the two predict workloads share: the
// requests replica 0 received on path are replayed through the JSON probes
// and, decoded, into inproc (the in-process call on that replica's service);
// then the span budget, the counts and the nanosecond-scale probes.
func replayLayers[Req, Resp any](p *predictFleet, spans []span, counted map[string]uint64, ls *layerSet,
	path, root, inprocName string, callIDs []string, inproc func(Req)) {
	exs := p.fleet.reps[0].tap.get(path)
	wp := jsonProbes[Req, Resp](exs)
	reqs := decodeAll[Req](exs)
	k := 0
	wp.inprocName = inprocName
	wp.inprocUs, wp.inprocAllocs = probeUs(func() { inproc(reqs[k%len(reqs)]); k++ })
	wireLayers(ls, spans, root, wp)
	ls.set("admission.shed_count", float64(p.sheds.Load()))
	ls.set("serving.pool_hit_ratio", ratio(counted["pool.hits"], counted["pool.misses"]))
	smallProbes(ls, p.fleet, p.model, callIDs)
}

// --- probes shared by the HTTP workloads ---

// wireProbe carries the probe results wireLayers folds into the budget.
type wireProbe struct {
	decUs, encUs, reqBytes, respBytes float64
	inprocName                        string
	inprocUs, inprocAllocs            float64
}

// probeUs is probe with the default budget, in microseconds.
func probeUs(fn func()) (us, allocs float64) {
	ns, allocs := probe(probeBudget, fn)
	return ns / 1e3, allocs
}

// decodeAll decodes every captured request into the serving wire type.
func decodeAll[Req any](exs []exchange) []Req {
	if len(exs) == 0 {
		panic("benchmark: the traced window captured no request to replay")
	}
	out := make([]Req, len(exs))
	for i, ex := range exs {
		must(json.Unmarshal(ex.req, &out[i]))
	}
	return out
}

// jsonProbes times the decode of the captured request bodies and the encode
// of the captured replies through the serving wire types, the way the
// handlers do it (a Decoder over the body, an Encoder to the writer).
func jsonProbes[Req, Resp any](exs []exchange) wireProbe {
	var wp wireProbe
	resps := make([]Resp, len(exs))
	for i, ex := range exs {
		must(json.Unmarshal(ex.resp, &resps[i]))
		wp.reqBytes += float64(len(ex.req)) / float64(len(exs))
		wp.respBytes += float64(len(ex.resp)) / float64(len(exs))
	}
	k := 0
	wp.decUs, _ = probeUs(func() {
		var req Req
		must(json.NewDecoder(bytes.NewReader(exs[k%len(exs)].req)).Decode(&req))
		k++
	})
	wp.encUs, _ = probeUs(func() {
		must(json.NewEncoder(io.Discard).Encode(&resps[k%len(resps)]))
		k++
	})
	return wp
}

// wireLayers turns the traced spans of the calls rooted at root into the
// client, router and serving metrics and the workload's budget table.
//
// Reading the table: client.rtt_us = client.net_us + router.self_us + the
// time replica spans cover (their union, when a call fans out). Under the
// covered time sit the replica-side layers: decode, the in-process call,
// encode; serving.wire_self_us is the handler span minus the in-process
// call, JSON included. What no probe explains — net/http on three sockets,
// the loopback, the scheduler, and the router's own re-encode of the request
// and decode of the reply — is the unattributed share.
func wireLayers(ls *layerSet, spans []span, root string, wp wireProbe) {
	agg := byName(spans, root)
	client, rt, sv := get(agg, root), get(agg, "router"), get(agg, "serving")
	rtt := client.meanUs()
	coveredUs := rt.meanUs() - rt.selfUs()
	fanout := 0.0
	if rt.n > 0 {
		fanout = float64(sv.n) / float64(rt.n)
	}
	ls.set("client.rtt_us", rtt)
	ls.set("client.net_us", client.selfUs())
	ls.set("client.rtt_p99_us", client.p99Us())
	ls.set("router.handler_us", rt.meanUs())
	ls.set("router.self_us", rt.selfUs())
	ls.set("router.fanout", fanout)
	ls.set("serving.handler_us", sv.meanUs())
	ls.set("serving.wire_self_us", sv.meanUs()-wp.inprocUs)
	ls.set("serving.json_decode_us", wp.decUs)
	ls.set("serving.json_encode_us", wp.encUs)
	ls.set("serving.req_bytes", wp.reqBytes)
	ls.set("serving.resp_bytes", wp.respBytes)
	ls.set(wp.inprocName, wp.inprocUs)

	ls.row("client.rtt_us", 0, rtt, rtt, 0, "span")
	ls.row("client.net_us", 1, client.selfUs(), rtt, 0, "span")
	ls.row("router.handler_us", 1, rt.meanUs(), rtt, 0, "span")
	ls.row("router.self_us", 2, rt.selfUs(), rtt, 0, "span")
	ls.row("serving.handler_us (covered)", 2, coveredUs, rtt, 0, "span")
	ls.row("serving.json_decode_us", 3, wp.decUs, rtt, 0, "probe")
	ls.row(wp.inprocName, 3, wp.inprocUs, rtt, wp.inprocAllocs, "probe")
	ls.row("serving.json_encode_us", 3, wp.encUs, rtt, 0, "probe")
	ls.row("serving.wire_self_us", 3, sv.meanUs()-wp.inprocUs, rtt, 0, "derived")
	// Both the router and the replica decode the request and encode the
	// reply; the in-process call happens once on the blocking path.
	ls.unattributed(rtt, wp.inprocUs+2*wp.decUs+2*wp.encUs)
}

// smallProbes times the nanosecond-scale layers every routed call crosses:
// shard lookup and split, admission, and the warm pool's checkout/return.
func smallProbes(ls *layerSet, f *httpFleet, model string, callIDs []string) {
	m := f.rt.Map()
	k := 0
	ns, _ := probe(probeBudget, func() { _ = m.Owner(callIDs[k%len(callIDs)]); k++ })
	ls.set("shard.owner_ns", ns)
	ns, _ = probe(probeBudget, func() { _ = m.Split(callIDs) })
	ls.set("shard.split_us", ns/1e3)

	ep := newLimiter(limiterConfig{}).Endpoint("POST /bench", admissionPredict, 0)
	ctx := context.Background()
	ns, _ = probe(probeBudget, func() {
		t, _ := ep.Acquire(ctx, false)
		t.Release()
	})
	ls.set("admission.acquire_release_ns", ns)

	pool := f.reps[0].svc.Pool()
	target := deployTarget{Scenario: scenario, Region: predictRegion}
	ns, _ = probe(probeBudget, func() {
		inst, _, err := pool.Checkout(target, modelVersionV1, model)
		must(err)
		pool.Return(target, modelVersionV1, inst)
	})
	ls.set("serving.pool_checkout_return_ns", ns)
}

// modelProbes times the forecasting kernels on the workload's own histories.
func modelProbes(ls *layerSet, hist []seagull.Series, ssa bool) {
	pf, err := seagull.NewModel(seagull.ModelPersistentPrevDay, 0)
	must(err)
	k := 0
	var day seagull.Series
	us, _ := probeUs(func() {
		must(pf.Train(hist[k%len(hist)]))
		day, err = pf.Forecast(horizon)
		must(err)
		k++
	})
	ls.set("forecast.persistent_train_infer_us", us)
	us, _ = probeUs(func() {
		_, err := lowestLoadWindow(day, windowPoints)
		must(err)
	})
	ls.set("metrics.ll_window_us", us)
	if !ssa {
		return
	}
	m, err := seagull.NewModel(seagull.ModelSSA, 0)
	must(err)
	us, _ = probeUs(func() { must(m.Train(hist[k%len(hist)])); k++ })
	ls.set("forecast.ssa_train_us", us)
	us, _ = probeUs(func() {
		_, err := m.Forecast(horizon)
		must(err)
	})
	ls.set("forecast.ssa_infer_us", us)
}
