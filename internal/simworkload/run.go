package simworkload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/router"
	"seagull/internal/serving"
	"seagull/internal/shard"
	"seagull/internal/simclock"
	"seagull/internal/simulate"
	"seagull/internal/stream"
)

const week = 7 * 24 * time.Hour

// The harness's fixed settings, the same in every scenario.
const (
	// slotMinutes is the telemetry interval; the WAL group-commits once a
	// slot (the simulated δ).
	slotMinutes = 5
	slot        = slotMinutes * time.Minute
	slotsPerDay = int(24 * time.Hour / slot)
	// snapshotEvery is the incremental-snapshot cadence.
	snapshotEvery = 6 * time.Hour
	// maxInflight bounds each replica's admitted concurrency (the adaptive
	// limiter's ceiling). Saturated predicts degrade to the persistent
	// fallback (brownout) instead of shedding.
	maxInflight = 64
)

// Options parameterizes a harness run, orthogonally to the Scenario: the
// scenario says what happens in simulated time; the options say how the run
// executes on the host.
type Options struct {
	// Hours overrides the scenario's live-replay length when positive.
	Hours float64
	// Seed overrides the scenario seed when non-zero.
	Seed int64
	// Scale paces the driver loop at that many simulated seconds per wall
	// second (100 = a day every ~14 minutes); 0 runs unthrottled — as fast
	// as the host executes, the usual choice.
	Scale float64
	// IngestWorkers and PredictWorkers bound the per-slot fan-outs.
	// Defaults 4 and 8.
	IngestWorkers  int
	PredictWorkers int
	// RowEvery is the timeline sampling cadence in simulated time. Default
	// one hour.
	RowEvery time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.IngestWorkers <= 0 {
		o.IngestWorkers = 4
	}
	if o.PredictWorkers <= 0 {
		o.PredictWorkers = 8
	}
	if o.RowEvery <= 0 {
		o.RowEvery = time.Hour
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Outcome is everything a run produces.
type Outcome struct {
	Scenario Scenario
	Rows     []Row
	// CSV is the rendered timeline — bit-identical per (scenario, seed).
	CSV    []byte
	Report SLOReport
}

// regionRun is one region's replay state.
type regionRun struct {
	spec    RegionSpec
	fleet   *simulate.Fleet
	servers []*simulate.Server
	// targets are the long-lived servers predict traffic is drawn from
	// (short-lived servers may have no live history or stored prediction).
	targets []*simulate.Server
	carry   float64 // fractional predict-count accumulator
}

// harness owns one run's wired system.
type harness struct {
	sc    Scenario
	opts  Options
	clock *simclock.Simulated

	fleetStart  time.Time
	replayStart time.Time
	genWeeks    int

	store *lake.Store
	db    *cosmos.DB
	reg   *registry.Registry
	pipe  *pipeline.Pipeline

	// stacks are the serving replicas: one for the single-process scenario,
	// N consistent-hash shards behind a router when Scenario.Replicas > 1.
	// The lake, document store and registry are shared (the cloud services);
	// each stack privately owns its shard's rings, detector, refresher,
	// sweeper and namespaced durability.
	stacks []*simStack
	smap   *shard.Map

	// simTracer records the stream side (sweeps, refreshes) on the simulated
	// clock: span counts are deterministic per (scenario, seed) and land in
	// the timeline CSV. wallTracer records the serving side on the wall
	// clock: per-stage latencies are real measurements and land in the SLO
	// report next to the predict percentiles.
	simTracer  *obs.Tracer
	wallTracer *obs.Tracer

	// shadow is the counterfactual baseline: the same telemetry stream
	// without event perturbations. Drift-lag measurement counts a server as
	// detected only when the live sweep flags it and the shadow sweep does
	// not, which separates injected drift from the model's natural drift.
	shadow *stream.Ingestor
	sdet   *stream.DriftDetector

	client  *serving.Client
	regions []*regionRun
	rng     *rand.Rand
	closers []func()

	ingPool  *parallel.Pool
	predPool *parallel.Pool

	issued     uint64 // deterministic dispatch count
	okN        atomic.Uint64
	degradedN  atomic.Uint64
	shedN      atomic.Uint64
	failedN    atomic.Uint64
	latMu      sync.Mutex
	latMS      []float64
	lastDepth  int
	maxDepth   int
	judgedWeek int
	drifts     []*driftTrack
}

// driftTrack measures one injected drift event's detection lag: the first
// sweep at or after the event where an affected server that was clean on the
// last pre-event sweep shows up drifted.
type driftTrack struct {
	ev         Event
	affected   map[string]bool
	detectedAt float64 // replay hours; -1 while undetected
}

type appendJob struct {
	id string
	t  time.Time
	// live is the fully event-perturbed value; base is the same value
	// without drift injections — the shadow baseline. ok is false when an
	// event silences the delivery (maintenance, failover) on both streams.
	live float64
	base float64
	ok   bool
}

type predictJob struct {
	region string
	id     string
}

// simStack is one serving replica's private state.
type simStack struct {
	name string
	ing  *stream.Ingestor
	det  *stream.DriftDetector
	ref  *stream.Refresher
	sw   *stream.Sweeper
	dur  *stream.Durability
}

// ownerStack resolves a server ID to the replica that owns its shard.
func (h *harness) ownerStack(serverID string) *simStack {
	if len(h.stacks) == 1 {
		return h.stacks[0]
	}
	return h.stacks[h.smap.OwnerIndex(serverID)]
}

// Run executes one scenario against a fully wired system — batch warmup
// through the weekly pipeline, then a slot-by-slot live replay on a
// simulated clock: telemetry ingest (perturbed by the scenario's events) fans
// out concurrently with real predict requests over a loopback HTTP listener,
// while drift sweeps, refresh drains, WAL group commits, snapshots and
// week-boundary pipeline runs fire at their simulated cadences.
//
// Everything the simulated clock paces is deterministic per (scenario,
// seed) and lands in the timeline; everything the wall clock measures
// (latencies, sheds, brownouts) lands in the SLO report. Cancelling ctx
// stops the run at the next slot boundary and returns ctx.Err() after
// tearing the system down.
func Run(ctx context.Context, sc Scenario, opts Options) (*Outcome, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	opts = opts.withDefaults()
	if opts.Hours > 0 {
		sc.Hours = opts.Hours
	}
	if opts.Seed != 0 {
		sc.Seed = opts.Seed
	}

	// The lake (extracts, WAL, snapshots) lives in a temporary directory
	// removed when the run ends.
	dir, err := os.MkdirTemp("", "seagull-sim-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	h := &harness{sc: sc, opts: opts}
	liveWeeks := int(math.Ceil(sc.Hours / (7 * 24)))
	if liveWeeks < 1 {
		liveWeeks = 1
	}
	h.genWeeks = sc.HistoryWeeks - 1 + liveWeeks

	if err := h.build(dir, liveWeeks); err != nil {
		return nil, err
	}
	defer h.close()

	wallStart := time.Now()
	if err := h.warmup(ctx); err != nil {
		return nil, err
	}
	if err := h.prefeed(); err != nil {
		return nil, err
	}
	opts.Logf("warmup done: %d weeks trained across %d regions, live window prefed (%.2fs wall)",
		sc.HistoryWeeks, len(sc.Regions), time.Since(wallStart).Seconds())

	srvClose, err := h.serve()
	if err != nil {
		return nil, err
	}
	defer srvClose()

	rows, err := h.replay(ctx, wallStart)
	out := &Outcome{Scenario: sc, Rows: rows, CSV: TimelineCSV(rows)}
	out.Report = h.report(time.Since(wallStart))
	if err != nil {
		return out, err
	}
	return out, nil
}

// build wires the substrates on the simulated clock (everything except the
// serving layer, whose latencies are real work measured on the wall clock).
func (h *harness) build(dir string, liveWeeks int) error {
	store, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		return err
	}
	db, err := cosmos.Open("")
	if err != nil {
		return err
	}
	h.store, h.db = store, db

	for i, spec := range h.sc.Regions {
		fleet := simulate.GenerateFleet(simulate.Config{
			Region:   spec.Name,
			Servers:  spec.Servers,
			Weeks:    h.genWeeks,
			Interval: slot,
			Seed:     h.sc.Seed + int64(i),
		})
		r := &regionRun{spec: spec, fleet: fleet, servers: fleet.Servers}
		for _, srv := range fleet.Servers {
			if !srv.ShortLived {
				r.targets = append(r.targets, srv)
			}
		}
		h.regions = append(h.regions, r)
	}
	h.fleetStart = h.regions[0].fleet.Config.Start
	h.replayStart = h.fleetStart.Add(time.Duration(h.sc.HistoryWeeks-1) * week)
	h.clock = simclock.NewSimulated(h.replayStart)
	h.judgedWeek = h.sc.HistoryWeeks - 1

	h.reg = registry.New(h.clock)
	h.pipe = pipeline.New(store, db, h.reg, nil)
	h.pipe.Clock = h.clock

	ppw := int(week / slot)
	ringCfg := stream.Config{
		Interval: slot,
		Epoch:    h.fleetStart,
		Slots:    (liveWeeks + 2) * ppw,
		Clock:    h.clock,
	}
	h.shadow = stream.NewIngestor(ringCfg)
	h.sdet = stream.NewDriftDetector(h.shadow, db)
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	unbind := pool.Bind(h.reg)
	h.simTracer = obs.NewTracer(obs.TracerConfig{Clock: h.clock})
	h.wallTracer = obs.NewTracer(obs.TracerConfig{})

	names := make([]string, h.sc.Replicas)
	for i := range names {
		names[i] = fmt.Sprintf("replica-%02d", i)
	}
	smap, err := shard.New(uint64(h.sc.Seed), names)
	if err != nil {
		return err
	}
	h.smap = smap
	for _, name := range smap.Replicas() {
		st := &simStack{name: name}
		st.ing = stream.NewIngestor(ringCfg)
		st.det = stream.NewDriftDetector(st.ing, db)
		st.ref = stream.NewRefresher(st.ing, db, h.reg, pool, stream.RefreshConfig{
			Workers: 2,
			Clock:   h.clock,
			Tracer:  h.simTracer,
		})
		st.sw = stream.NewSweeper(db, st.det, st.ref, stream.SweeperConfig{
			Interval: time.Duration(h.sc.SweepEveryMinutes) * time.Minute,
			Clock:    h.clock,
			Tracer:   h.simTracer,
		})
		durCfg := stream.DurabilityConfig{
			CommitEvery:   slot,
			SnapshotEvery: snapshotEvery,
			Clock:         h.clock,
		}
		if h.sc.Replicas > 1 {
			// Namespaced so N replicas share the lake without colliding; the
			// single-replica run keeps the original object names.
			durCfg.Namespace = name
		}
		st.dur = stream.NewDurability(st.ing, store, durCfg)
		h.stacks = append(h.stacks, st)
	}
	h.closers = append(h.closers, unbind)

	h.rng = rand.New(rand.NewSource(h.sc.Seed*911_383 + 101))
	h.ingPool = parallel.NewPool(h.opts.IngestWorkers)
	h.predPool = parallel.NewPool(h.opts.PredictWorkers)

	for _, ev := range h.sc.Events {
		if ev.Type != EventDrift {
			continue
		}
		t := &driftTrack{ev: ev, affected: map[string]bool{}, detectedAt: -1}
		for _, r := range h.regions {
			if !eventHits(ev, r.spec.Name) {
				continue
			}
			n := affectedCount(ev, len(r.servers))
			for _, srv := range r.servers[:n] {
				t.affected[srv.ID] = true
			}
		}
		h.drifts = append(h.drifts, t)
	}
	return nil
}

// warmup extracts every generated week to the lake and runs the weekly
// pipeline for the history weeks, leaving each region with stored
// predictions and summaries for week HistoryWeeks-1 — the week the live
// replay re-enters.
func (h *harness) warmup(ctx context.Context) error {
	for _, r := range h.regions {
		if _, err := extract.ExtractAll(h.store, r.fleet); err != nil {
			return err
		}
		for w := 0; w < h.sc.HistoryWeeks; w++ {
			if _, err := h.pipe.RunWeek(ctx, pipeline.Config{
				Region:   r.spec.Name,
				Week:     w,
				Interval: slot,
			}); err != nil {
				return fmt.Errorf("simworkload: warmup %s week %d: %w", r.spec.Name, w, err)
			}
		}
	}
	// Arm durability only now: warmup telemetry flows through the lake, not
	// the live ring. The WAL covers everything the ring holds — the prefeed
	// week and the live replay — so crash recovery restores the full live
	// window. Each replica recovers only its own namespace.
	for _, st := range h.stacks {
		if _, err := st.dur.Recover(); err != nil {
			return err
		}
		if err := st.dur.Open(); err != nil {
			return err
		}
	}
	return nil
}

// prefeed streams the week before the replay into the live ring, so live
// predicts and refreshes start with a full training window instead of
// cold-starting.
func (h *harness) prefeed() error {
	for _, r := range h.regions {
		loads, err := extract.Ingest(h.store, r.spec.Name, h.sc.HistoryWeeks-2, slot)
		if err != nil {
			return err
		}
		for _, sl := range loads {
			st := h.ownerStack(sl.ServerID)
			if _, err := st.ing.AppendSeries(sl.ServerID, sl.Load.Start, sl.Load.Values); err != nil {
				return err
			}
			if _, err := h.shadow.AppendSeries(sl.ServerID, sl.Load.Start, sl.Load.Values); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve starts one serving replica per stack on loopback listeners and
// points the harness client at the fleet: directly at the single service
// when Replicas == 1 (no router hop, the original topology), otherwise at a
// router fronting the shard replicas. The returned function tears it all
// down.
func (h *harness) serve() (func(), error) {
	var closers []func()
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var reps []router.Replica
	for _, st := range h.stacks {
		svc := serving.NewService(h.reg, h.db, serving.ServiceConfig{
			Ingestor:    st.ing,
			Drift:       st.det,
			Refresher:   st.ref,
			Sweeper:     st.sw,
			Durability:  st.dur,
			MaxInflight: maxInflight,
			Brownout:    true,
			Tracer:      h.wallTracer,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			teardown()
			return nil, err
		}
		hsrv := &http.Server{Handler: svc.Handler()}
		go func() { _ = hsrv.Serve(ln) }()
		closers = append(closers, func() {
			_ = hsrv.Close()
			svc.Close()
		})
		reps = append(reps, router.Replica{Name: st.name, BaseURL: "http://" + ln.Addr().String()})
	}
	if len(reps) == 1 {
		h.client = serving.NewClient(reps[0].BaseURL)
		return teardown, nil
	}
	// The router itself runs on the wall clock: its retry/breaker pacing is
	// serving-side machinery, and nothing deterministic depends on it.
	rt, err := router.New(router.Config{Seed: uint64(h.sc.Seed), Replicas: reps})
	if err != nil {
		teardown()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		teardown()
		return nil, err
	}
	hsrv := &http.Server{Handler: rt.Handler()}
	go func() { _ = hsrv.Serve(ln) }()
	closers = append(closers, func() { _ = hsrv.Close() })
	h.client = serving.NewClient("http://" + ln.Addr().String())
	return teardown, nil
}

func (h *harness) close() {
	for _, st := range h.stacks {
		if st.dur != nil {
			_ = st.dur.Close()
		}
	}
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

// replay drives the live span slot by slot: advance the simulated clock,
// fan out the slot's telemetry and predict traffic concurrently, then fire
// whatever simulated cadences the slot boundary crossed.
func (h *harness) replay(ctx context.Context, wallStart time.Time) ([]Row, error) {
	totalSlots := int(math.Ceil(sc2h(h.sc.Hours) / float64(slot)))
	weekMin := int(week / time.Minute)
	rowEveryMin := int(h.opts.RowEvery / time.Minute)
	if rowEveryMin < slotMinutes {
		rowEveryMin = slotMinutes
	}

	rows := []Row{h.sample(0)}
	for s := 0; s < totalSlots; s++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		slotStart := h.replayStart.Add(time.Duration(s) * slot)
		slotEnd := slotStart.Add(slot)
		h.clock.AdvanceTo(slotEnd)
		// Hours come from integer minute counts so slot boundaries that fall
		// on whole hours are exact (2, never 1.9999999999999998).
		hour := float64(s*slotMinutes) / 60
		endHour := float64((s+1)*slotMinutes) / 60

		appends := h.slotAppends(slotStart, hour)
		predicts := h.slotPredicts(slotStart, hour)
		h.issued += uint64(len(predicts))

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = h.predPool.ForEach(len(predicts), func(i int) error {
				h.doPredict(ctx, predicts[i])
				return nil
			})
		}()
		_ = h.ingPool.ForEach(len(appends), func(i int) error {
			a := appends[i]
			if a.ok {
				h.ownerStack(a.id).ing.Append(a.id, a.t, a.live)
				h.shadow.Append(a.id, a.t, a.base)
			}
			return nil
		})
		wg.Wait()

		// Maintenance fires per replica, in shard-map order — the iteration
		// order is part of the deterministic timeline.
		elapsedMin := (s + 1) * slotMinutes
		for _, st := range h.stacks {
			_ = st.dur.CommitNow()
		}
		if elapsedMin%int(snapshotEvery/time.Minute) == 0 {
			for _, st := range h.stacks {
				_, _ = st.dur.SnapshotNow()
			}
		}
		if elapsedMin%h.sc.SweepEveryMinutes == 0 {
			depth := 0
			for _, st := range h.stacks {
				_ = st.sw.SweepOnce(ctx)
				depth += st.ref.Stats().Pending
			}
			h.lastDepth = depth
			if depth > h.maxDepth {
				h.maxDepth = depth
			}
			h.measureDrift(ctx, endHour)
			for _, st := range h.stacks {
				if err := st.ref.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
					return rows, err
				}
			}
		}
		if elapsedMin%weekMin == 0 {
			completed := h.sc.HistoryWeeks - 2 + elapsedMin/weekMin
			if completed >= h.sc.HistoryWeeks && completed < h.genWeeks {
				for _, r := range h.regions {
					if _, err := h.pipe.RunWeek(ctx, pipeline.Config{
						Region:   r.spec.Name,
						Week:     completed,
						Interval: slot,
					}); err != nil {
						return rows, fmt.Errorf("simworkload: week %d boundary run: %w", completed, err)
					}
				}
				h.judgedWeek = completed
				h.opts.Logf("sim %.0fh: week %d pipeline run complete", endHour, completed)
			}
		}
		if elapsedMin%rowEveryMin == 0 {
			rows = append(rows, h.sample(endHour))
			h.opts.Logf("sim %.0fh / %.0fh (%.1fs wall)", endHour, h.sc.Hours, time.Since(wallStart).Seconds())
		}

		if h.opts.Scale > 0 {
			wallTarget := time.Duration(float64(time.Duration(s+1)*slot) / h.opts.Scale)
			if lead := wallTarget - time.Since(wallStart); lead > 0 {
				time.Sleep(lead)
			}
		}
	}
	last := float64(totalSlots*slotMinutes) / 60
	if n := len(rows); n == 0 || rows[n-1].SimHours != last {
		rows = append(rows, h.sample(last))
	}
	return rows, nil
}

// slotAppends builds the slot's telemetry deliveries: each server's
// generated load value at slotStart, transformed by the active events. Each
// delivery carries a second value with every perturbation except drift
// injections — the shadow stream — so drift-lag measurement can difference
// out everything the scenario does besides the injection under test.
func (h *harness) slotAppends(slotStart time.Time, hour float64) []appendJob {
	var jobs []appendJob
	for _, r := range h.regions {
		silentAll := false
		loadMult := 1.0
		for _, ev := range h.sc.Events {
			if !ev.active(hour) {
				continue
			}
			if ev.Type == EventFailover {
				if ev.Region == r.spec.Name {
					silentAll = true
				} else {
					loadMult *= ev.Magnitude
				}
			}
		}
		for pos, srv := range r.servers {
			idx, ok := srv.Load().IndexOf(slotStart)
			if !ok {
				continue
			}
			v := srv.Load().Values[idx]
			if v != v { // missing (NaN) telemetry point
				continue
			}
			skip := silentAll
			val := v * loadMult
			base := val
			for _, ev := range h.sc.Events {
				if !ev.active(hour) || !eventHits(ev, r.spec.Name) {
					continue
				}
				if pos >= affectedCount(ev, len(r.servers)) {
					continue
				}
				switch ev.Type {
				case EventMaintenance:
					skip = true
				case EventBurstStorm:
					val *= ev.Magnitude
					base *= ev.Magnitude
				case EventDrift:
					val += ev.Magnitude
				}
			}
			jobs = append(jobs, appendJob{
				id: srv.ID, t: slotStart,
				live: clampLoad(val), base: clampLoad(base), ok: !skip,
			})
		}
	}
	return jobs
}

// slotPredicts draws the slot's predict traffic: the scenario's base rate
// shaped by time of day and weekday, scaled per region by active events, and
// spread over deterministic seeded target picks.
func (h *harness) slotPredicts(slotStart time.Time, hour float64) []predictJob {
	total := 0
	for _, r := range h.regions {
		total += len(r.targets)
	}
	if total == 0 {
		return nil
	}
	shape := trafficShape(slotStart)
	var jobs []predictJob
	for _, r := range h.regions {
		mult := 1.0
		for _, ev := range h.sc.Events {
			if !ev.active(hour) {
				continue
			}
			switch ev.Type {
			case EventBurstStorm:
				if eventHits(ev, r.spec.Name) {
					mult *= ev.Magnitude
				}
			case EventFailover:
				if ev.Region == r.spec.Name {
					mult = 0
				} else {
					mult *= ev.Magnitude
				}
			}
		}
		share := float64(len(r.targets)) / float64(total)
		r.carry += float64(h.sc.PredictsPerHour) * share * shape * mult * slot.Hours()
		n := int(r.carry)
		r.carry -= float64(n)
		for i := 0; i < n; i++ {
			srv := r.targets[h.rng.Intn(len(r.targets))]
			jobs = append(jobs, predictJob{region: r.spec.Name, id: srv.ID})
		}
	}
	return jobs
}

// doPredict issues one live-history predict over the loopback listener and
// records its wall latency and outcome.
func (h *harness) doPredict(ctx context.Context, job predictJob) {
	start := time.Now()
	resp, err := h.client.PredictV2(ctx, serving.PredictRequestV2{
		Scenario:    pipeline.Scenario,
		Region:      job.region,
		ServerID:    job.id,
		LiveHistory: true,
		Horizon:     slotsPerDay,
	})
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	h.latMu.Lock()
	h.latMS = append(h.latMS, ms)
	h.latMu.Unlock()
	switch {
	case err == nil && resp.Degraded:
		h.degradedN.Add(1)
	case err == nil:
		h.okN.Add(1)
	case isOverloaded(err):
		h.shedN.Add(1)
	default:
		h.failedN.Add(1)
	}
}

// measureDrift advances the drift-lag trackers. From each drift event's
// start onward, it sweeps the live detector and the shadow (unperturbed)
// detector over the event's regions; detection is the first sweep where an
// affected server is drifted live but clean in the counterfactual — natural
// model drift flags both streams and cancels out. Measurement sweeps share
// the production detector but bypass the refresher, so they never perturb
// the production loop's queue.
func (h *harness) measureDrift(ctx context.Context, hour float64) {
	for _, t := range h.drifts {
		if t.detectedAt >= 0 || hour < t.ev.AtHour {
			continue
		}
		live := map[string]bool{}
		base := map[string]bool{}
		for _, r := range h.regions {
			if !eventHits(t.ev, r.spec.Name) {
				continue
			}
			// Each replica's detector sees only its shard's rings; the union
			// over replicas is the fleet's live verdict.
			for _, st := range h.stacks {
				lrep, err := st.det.Sweep(ctx, r.spec.Name, h.judgedWeek)
				if err != nil {
					continue
				}
				for _, sd := range lrep.DriftedServers {
					live[sd.ServerID] = true
				}
			}
			srep, err := h.sdet.Sweep(ctx, r.spec.Name, h.judgedWeek)
			if err != nil {
				continue
			}
			for _, sd := range srep.DriftedServers {
				base[sd.ServerID] = true
			}
		}
		for id := range live {
			if t.affected[id] && !base[id] {
				t.detectedAt = hour - t.ev.AtHour
				break
			}
		}
	}
}

// fleetStats sums the replicas' stream counters. Per-replica counters are
// deterministic (routing is a pure function of the seed), so the sums are
// too. Durability starts from the first replica so its configuration fields
// and — in a fleet of one — its recovery outcome carry over.
func (h *harness) fleetStats() (ing stream.Stats, sw stream.SweeperStats, ref stream.RefreshStats, dur stream.DurabilityStats) {
	dur = h.stacks[0].dur.Stats()
	for i, st := range h.stacks {
		ing.Add(st.ing.Stats())
		sw.Add(st.sw.Stats())
		ref.Add(st.ref.Stats())
		if i > 0 {
			dur.Add(st.dur.Stats())
		}
	}
	return ing, sw, ref, dur
}

// sample snapshots the deterministic counters into a timeline row.
func (h *harness) sample(simHours float64) Row {
	ist, sst, rst, dst := h.fleetStats()
	return Row{
		SimHours:       simHours,
		Appended:       ist.Appended,
		Duplicates:     ist.Duplicates,
		TooOld:         ist.TooOld,
		TooNew:         ist.TooNew,
		Sweeps:         sst.Ticks,
		Drifted:        sst.Drifted,
		Queued:         sst.Queued,
		Refreshed:      rst.Refreshed,
		RefSkipped:     rst.Skipped,
		RefDropped:     rst.Dropped,
		QueueDepth:     h.lastDepth,
		WALCommits:     dst.Commits,
		WALRecords:     dst.CommitRecords,
		Snapshots:      dst.Snapshots,
		PredictsIssued: h.issued,
		SweepSpans:     stageCount(h.simTracer, "sweep"),
		RefreshTrains:  stageCount(h.simTracer, "train"),
	}
}

// stageCount reads one stage's cumulative span count from a tracer's
// aggregates. On the simulated-clock tracer it is deterministic: sweeps and
// refresh drains run synchronously at slot boundaries. The train stage's
// memo-hit count is not — it depends on which warm-pool instance a parallel
// refresher worker drew — so it stays out of the timeline; slo.json's
// wall-measured stages carry train hits.
func stageCount(tr *obs.Tracer, stage string) uint64 {
	for _, st := range tr.StageStats() {
		if st.Stage == stage {
			return st.Count
		}
	}
	return 0
}

// report assembles the SLO report after the replay.
func (h *harness) report(wall time.Duration) SLOReport {
	rep := SLOReport{
		Scenario:      h.sc.Name,
		Seed:          h.sc.Seed,
		SimHours:      h.sc.Hours,
		WallSeconds:   wall.Seconds(),
		MaxQueueDepth: h.maxDepth,
		Replicas:      len(h.stacks),
	}
	rep.Ingest, rep.Sweeper, rep.Refresh, rep.Durability = h.fleetStats()
	if rep.WallSeconds > 0 {
		rep.Compression = rep.SimHours * 3600 / rep.WallSeconds
	}
	rep.Predicts = PredictSLO{
		Issued:   h.issued,
		OK:       h.okN.Load(),
		Degraded: h.degradedN.Load(),
		Shed:     h.shedN.Load(),
		Failed:   h.failedN.Load(),
	}
	// Per-stage wall latencies from the serving-side tracer: where inside a
	// predict the time went (admission wait, pool checkout, train,
	// inference). Wall measurements, so report-only — never in the CSV.
	rep.Stages = h.wallTracer.StageStats()
	h.latMu.Lock()
	summarizeLatencies(&rep.Predicts, h.latMS)
	h.latMu.Unlock()
	for _, t := range h.drifts {
		rep.DriftLag = append(rep.DriftLag, DriftLag{
			Region: t.ev.Region, AtHour: t.ev.AtHour, LagHours: t.detectedAt,
		})
	}
	return rep
}

// clampLoad bounds a perturbed value to the telemetry's 0–100 load scale.
func clampLoad(v float64) float64 {
	if v > 100 {
		return 100
	}
	if v < 0 {
		return 0
	}
	return v
}

// eventHits reports whether the event's region filter covers region.
func eventHits(e Event, region string) bool {
	return e.Region == "" || e.Region == region
}

// affectedCount returns how many of a region's n servers the event touches:
// the deterministic leading ceil(Fraction·n).
func affectedCount(e Event, n int) int {
	f := e.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	c := int(math.Ceil(f * float64(n)))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// trafficShape is the diurnal/weekly predict-rate factor: a sinusoid peaking
// mid-afternoon (trough ~0.65 at 03:00) with quieter weekends.
func trafficShape(t time.Time) float64 {
	hod := float64(t.Hour()) + float64(t.Minute())/60
	f := 1 + 0.35*math.Sin(2*math.Pi*(hod-9)/24)
	if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
		f *= 0.75
	}
	return f
}

// isOverloaded reports whether err is an admission-control shed.
func isOverloaded(err error) bool {
	var api *serving.APIError
	if errors.As(err, &api) {
		return api.Status == http.StatusServiceUnavailable || api.Status == http.StatusTooManyRequests
	}
	return false
}

// sc2h converts scenario hours to a duration's float64 nanoseconds — kept as
// a helper so slot math stays in one place.
func sc2h(hours float64) float64 { return hours * float64(time.Hour) }
