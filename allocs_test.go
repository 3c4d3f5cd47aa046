//go:build !race

// The race detector adds allocations of its own (StreamRefresh measures 27
// allocs per op without it and 34 with it, PipelineWeek 1,061 and 1,389), so
// the ceilings hold for the normal build only and `go test -race` skips this
// file.

package seagull_test

// Allocation ceilings: each row is one hot path whose steady-state heap
// allocations per operation must not exceed its ceiling. TestAllocCeilings
// enforces them in plain `go test`; BenchmarkAllocCases times the same rows
// for -bench and -cpuprofile. Timing questions belong to benchmark/.
//
// A zero ceiling stays exactly zero, and the documented warm-predict
// guarantees (SSA 3, FFNN 5, traced 3) are exact. Every other ceiling is
// floor(1.1 × the count measured when the row was last set), so growth of
// more than a tenth fails. Run `go test -v -run TestAllocCeilings .` to see
// the measured counts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"seagull"
	"seagull/internal/admission"
	"seagull/internal/cosmos"
	"seagull/internal/forecast"
	"seagull/internal/lake"
	"seagull/internal/linalg"
	"seagull/internal/metrics"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/serving"
	"seagull/internal/simulate"
	"seagull/internal/stream"
	"seagull/internal/timeseries"
)

// allocCase is one allocation guarantee. setup builds the fixture and
// returns the measured operation, which fails tb itself when its result is
// wrong. The operation is called once before measuring, so one-time costs
// (a warm pool's first model, decoding stored predictions, lazily sized
// scratch) are not counted.
type allocCase struct {
	name    string
	ceiling int
	setup   func(tb testing.TB) (op func())
}

var allocCases = []allocCase{
	// Metrics kernels read zero-copy views of both days.
	{"MinWindow", 0, minWindowCase},
	{"BucketRatio", 0, bucketRatioCase},
	{"EvaluateDay", 0, evaluateDayCase},

	// Forecasters: a fresh model, trained and asked for one day. This is
	// also everything a pool miss adds to a predict.
	{"PersistentForecastTrainInfer", 3, trainInferCase(newPersistent)}, // 3 measured
	{"SSATrainInfer", 22, trainInferCase(newSSA)},                      // 20 measured: exact Jacobi SVD
	{"SSATrainInferRandomized", 28, trainInferCase(newRandomizedSSA)},  // 26 measured: randomized range finder
	{"FFNNTrainInfer", 18, trainInferCase(newFastFFNN)},                // 17 measured: 5 epochs
	{"ARIMATrain", 117, trainInferCase(newSmallARIMA)},                 // 107 measured: the order search

	// Linear algebra, work distribution and fleet synthesis.
	{"SolveRidge", 2, solveRidgeCase},          // 2 measured: a 600×26 ridge solve
	{"PoolForEach", 16, poolForEachCase},       // 15 measured: 4 workers over 4,096 tiny tasks
	{"FleetGeneration", 442, fleetCase(false)}, // 402 measured: server metadata only
	{"FleetMaterialize", 507, fleetCase(true)}, // 461 measured: every server's telemetry too

	// Serving, in process: the warm pool, the train memo and tracing.
	{"ServePredictSSA", 3, servePredictCase(forecast.NameSSA, nil)},        // exact: the warm-predict guarantee
	{"ServePredictFFNN", 5, servePredictCase(forecast.NameFFNN, fastFFNN)}, // exact: the warm-predict guarantee
	{"ServeBatch", 71, serveBatchCase},                                     // 65 measured: 8 retrains on one warm model
	{"TracedPredict", 3, tracedPredictCase},                                // exact: tracing adds no allocation
	{"ServeDecodePredict", 5, serveDecodePredictCase},                      // 5 measured: one 2,016-point body read once and walked
	{"MetricsRender", 106, metricsRenderCase},                              // 97 measured: one /metrics scrape

	// The stream layer.
	{"StreamIngest", 0, streamIngestCase},                           // the warm append path
	{"StreamDriftSweep", 16, streamDriftSweepCase},                  // 15 measured: decoded predictions reused
	{"StreamRefresh", 29, streamRefreshCase},                        // 27 measured: one refresh through the warm pool
	{"StreamSweeper", 18, streamSweeperCase},                        // 17 measured: one background round
	{"StreamShardSnapshotWrite", 324, streamSnapshotWriteCase},      // 295 measured: open, snapshot 64 servers, close
	{"StreamShardSnapshotRestore", 1054, streamSnapshotRestoreCase}, // 959 measured: 64 servers from snapshots
	{"StreamWALReplay", 297, streamWALReplayCase},                   // 270 measured: 36,864 log records

	// The weekly batch and admission control.
	{"PipelineWeek", 1167, pipelineWeekCase(false)},    // 1,061 measured: RunWeek over 40 servers, week 0 kept
	{"PipelineWeekCold", 1302, pipelineWeekCase(true)}, // 1,184 measured: the same on a fresh Pipeline, both weeks parsed
	{"AdmissionAccept", 0, admissionAcceptCase},        // the accept fast path
	{"AdmissionShed", 0, admissionShedCase},            // shedding is cheaper than serving
}

// allocRuns is how many calls AllocsPerRun averages (rounding down).
const allocRuns = 10

func TestAllocCeilings(t *testing.T) {
	for _, c := range allocCases {
		t.Run(c.name, func(t *testing.T) {
			got := testing.AllocsPerRun(allocRuns, c.setup(t))
			t.Logf("%.0f allocs per op, ceiling %d", got, c.ceiling)
			if got > float64(c.ceiling) {
				t.Errorf("%.0f allocs per op exceeds the ceiling of %d", got, c.ceiling)
			}
		})
	}
}

// BenchmarkAllocCases times every row, so -bench, -benchmem and -cpuprofile
// reach each guarded path.
func BenchmarkAllocCases(b *testing.B) {
	for _, c := range allocCases {
		b.Run(c.name, func(b *testing.B) {
			op := c.setup(b)
			op()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func benchDay(seed int64) timeseries.Series {
	vals := make([]float64, 288)
	for i := range vals {
		v := 10.0
		if i >= 96 && i < 192 {
			v = 60
		}
		vals[i] = v + float64((int(seed)+i*37)%7)
	}
	return timeseries.New(time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

func benchHistory(days int) timeseries.Series {
	h := benchDay(1)
	full := timeseries.New(h.Start, h.Interval, nil)
	for d := 0; d < days; d++ {
		day := benchDay(int64(d))
		full.Append(day.Values...)
	}
	return full
}

func minWindowCase(tb testing.TB) func() {
	day := benchDay(3)
	return func() {
		if _, _, err := day.MinWindow(12); err != nil {
			tb.Fatal(err)
		}
	}
}

func bucketRatioCase(tb testing.TB) func() {
	t, p := benchDay(1), benchDay(2)
	return func() {
		if _, err := metrics.BucketRatio(t, p, metrics.DefaultBound); err != nil {
			tb.Fatal(err)
		}
	}
}

func evaluateDayCase(tb testing.TB) func() {
	t, p := benchDay(1), benchDay(2)
	cfg := metrics.DefaultConfig()
	return func() {
		if _, err := metrics.EvaluateDay(t, p, 12, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// trainInferCase builds a fresh model per operation and forecasts one day
// from a week of history.
func trainInferCase(newModel func() forecast.Model) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		hist := benchHistory(7)
		return func() {
			if _, err := forecast.PredictDay(newModel(), hist); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func newPersistent() forecast.Model { return forecast.NewPersistent(forecast.PrevDay) }
func newSSA() forecast.Model        { return forecast.NewSSA(forecast.SSAConfig{}) }
func newRandomizedSSA() forecast.Model {
	return forecast.NewSSA(forecast.SSAConfig{RandomizedSVD: true})
}
func newFastFFNN() forecast.Model { return forecast.NewFFNN(forecast.FFNNConfig{Seed: 1, Epochs: 5}) }

// newSmallARIMA uses the experiments' small-scale search settings.
func newSmallARIMA() forecast.Model {
	return forecast.NewARIMA(forecast.ARIMAConfig{MaxP: 1, MaxQ: 1, SearchBudget: 60})
}

// solveRidgeCase solves at the shape the Hannan–Rissanen long-AR regression
// produces (~600×26).
func solveRidgeCase(tb testing.TB) func() {
	rng := rand.New(rand.NewSource(7))
	const rows, cols = 600, 26
	a := linalg.NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return func() {
		if _, err := linalg.SolveRidge(a, y, 1e-6); err != nil {
			tb.Fatal(err)
		}
	}
}

// poolForEachCase hands many tiny tasks to a pool of 4 workers (not NumCPU,
// so the count is the same on every host).
func poolForEachCase(tb testing.TB) func() {
	pool := parallel.NewPool(4)
	sink := make([]int64, 4096)
	return func() {
		err := pool.ForEach(len(sink), func(j int) error {
			sink[j]++
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// fleetCase generates a 50-server fleet lazily and, when materialize is set,
// synthesizes every server's deferred telemetry too.
func fleetCase(materialize bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		return func() {
			fleet := simulate.GenerateFleet(simulate.Config{Region: "bench", Servers: 50, Weeks: 4, Seed: 1})
			if len(fleet.Servers) != 50 {
				tb.Fatal("wrong fleet size")
			}
			for _, srv := range fleet.Servers {
				if materialize && srv.Load().Len() == 0 {
					tb.Fatal("empty series")
				}
			}
		}
	}
}

// benchService deploys model for backup/bench on a one-worker service.
func benchService(model string, cfg serving.ServiceConfig) *serving.Service {
	reg := registry.New(nil)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "bench"}, model, "bench")
	cfg.Workers = 1
	return serving.NewService(reg, nil, cfg)
}

func benchPredictRequest() serving.PredictRequestV2 {
	return serving.PredictRequestV2{
		Scenario: "backup", Region: "bench",
		History: serving.FromSeries(benchHistory(7)), Horizon: 288, WindowPoints: 12,
	}
}

// fastFFNN is a short-epoch trainer profile, so the serving rows measure
// serving overhead rather than 25 epochs of SGD.
func fastFFNN(_ string, seed int64) (forecast.Model, error) {
	return forecast.NewFFNN(forecast.FFNNConfig{Seed: seed, Epochs: 5}), nil
}

// servePredictCase is the core serving path without HTTP: a warm-pool
// checkout, a memoized retrain on the same history, the forecast and the
// lowest-load window.
func servePredictCase(model string, newModel func(string, int64) (forecast.Model, error)) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		svc := benchService(model, serving.ServiceConfig{Pool: modelpool.Config{NewModel: newModel}})
		req := benchPredictRequest()
		ctx := context.Background()
		return func() {
			if _, serr := svc.Predict(ctx, req); serr != nil {
				tb.Fatal(serr)
			}
		}
	}
}

// serveBatchCase predicts 8 servers with distinct histories, so every item
// retrains (the train memo cannot kick in), on one worker's warm SSA model.
func serveBatchCase(tb testing.TB) func() {
	svc := benchService(forecast.NameSSA, serving.ServiceConfig{})
	items := make([]serving.BatchItem, 8)
	for i := range items {
		hist := benchHistory(7)
		for k := range hist.Values {
			hist.Values[k] += float64(i)
		}
		items[i] = serving.BatchItem{
			ServerID: fmt.Sprintf("srv-%d", i),
			History:  serving.FromSeries(hist),
			Horizon:  288, WindowPoints: 12,
		}
	}
	req := serving.BatchRequest{Scenario: "backup", Region: "bench", Servers: items}
	ctx := context.Background()
	return func() {
		resp, serr := svc.PredictBatch(ctx, req)
		if serr != nil {
			tb.Fatal(serr)
		}
		if resp.Failed != 0 {
			tb.Fatalf("%d batch items failed", resp.Failed)
		}
	}
}

// wireBody is a /v2/predict body as the benchmark's clients send it: a week
// of 5-minute history whose values carry 16–17 significant digits.
func wireBody(tb testing.TB) []byte {
	req := benchPredictRequest()
	rng := rand.New(rand.NewSource(3))
	for i := range req.History.Values {
		req.History.Values[i] += rng.Float64()
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// reusedBody is a request body that can be rewound, so a row can send one
// body many times without allocating a reader per call.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// serveDecodePredictCase is the replica's route decode of one 2,016-point
// /v2/predict body: read it once under the body limit and walk it into the
// typed request.
func serveDecodePredictCase(tb testing.TB) func() {
	body := wireBody(tb)
	rd := &reusedBody{}
	r := httptest.NewRequest(http.MethodPost, "/v2/predict", nil)
	w := httptest.NewRecorder()
	var req serving.PredictRequestV2
	return func() {
		rd.Reset(body)
		r.Body, r.ContentLength = rd, int64(len(body))
		req = serving.PredictRequestV2{}
		if serr := serving.DecodeRequest(w, r, &req); serr != nil || len(req.History.Values) != 7*288 {
			tb.Fatalf("decoded %d values: %v", len(req.History.Values), serr)
		}
	}
}

// TestServeDecodeBytes bounds the bytes the replica's route decode allocates
// per 2,016-point body: the body is read once and its values parsed once, so
// it holds the body and the floats, with room for buffer slack but not for
// a second copy of the body.
func TestServeDecodeBytes(t *testing.T) {
	body := wireBody(t)
	op := serveDecodePredictCase(t)
	op()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	limit := 2*len(body) + 8*7*288
	if n := int(after.TotalAlloc-before.TotalAlloc) / runs; n > limit {
		t.Fatalf("decoding a %d-byte body allocated %d bytes; want at most %d", len(body), n, limit)
	} else {
		t.Logf("decoding a %d-byte body allocated %d bytes, limit %d", len(body), n, limit)
	}
}

// tracedPredictCase is ServePredictSSA with a trace per request, carried by
// a pre-bound TraceRef (context.WithValue would cost an allocation per
// call).
func tracedPredictCase(tb testing.TB) func() {
	tracer := obs.NewTracer(obs.TracerConfig{})
	svc := benchService(forecast.NameSSA, serving.ServiceConfig{Tracer: tracer})
	req := benchPredictRequest()
	ref := &obs.TraceRef{}
	ctx := obs.ContextWithTraceRef(context.Background(), ref)
	return func() {
		tr := tracer.Start("bench", "bench") // a fixed ID: minting one costs an allocation
		ref.Set(tr)
		if _, serr := svc.Predict(ctx, req); serr != nil {
			tb.Fatal(serr)
		}
		tracer.Finish(tr, 200)
	}
}

// metricsRenderCase renders one /metrics scrape into a reused buffer.
func metricsRenderCase(tb testing.TB) func() {
	svc := benchService(forecast.NameSSA, serving.ServiceConfig{Tracer: obs.NewTracer(obs.TracerConfig{})})
	if _, serr := svc.Predict(context.Background(), benchPredictRequest()); serr != nil {
		tb.Fatal(serr)
	}
	var buf bytes.Buffer
	return func() {
		buf.Reset()
		if err := svc.WriteMetrics(&buf); err != nil {
			tb.Fatal(err)
		}
	}
}

var streamEpoch = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

// streamIngestCase appends strictly advancing slots round-robin over 64
// servers whose rings are already allocated.
func streamIngestCase(tb testing.TB) func() {
	ing := stream.NewIngestor(stream.Config{Epoch: streamEpoch, Slots: 4096})
	const servers = 64
	ids := make([]string, servers)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-srv-%04d", i)
		ing.Append(ids[i], streamEpoch, 1) // the only allocating append per server
	}
	i := 0
	return func() {
		at := streamEpoch.Add(time.Duration(1+i/servers) * 5 * time.Minute)
		if st := ing.Append(ids[i%servers], at, 42); st != stream.Appended {
			tb.Fatalf("append %d: %v", i, st)
		}
		i++
	}
}

// streamDriftFixture stores `servers` flat predictions and full live backup
// days, half of them drifted.
func streamDriftFixture(tb testing.TB, servers int) (*stream.DriftDetector, int) {
	db, err := cosmos.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	ing := stream.NewIngestor(stream.Config{Epoch: streamEpoch, Slots: 4096})
	day := streamEpoch.Add(24 * time.Hour)
	for s := 0; s < servers; s++ {
		id := fmt.Sprintf("bench-srv-%04d", s)
		vals := make([]float64, 288)
		for i := range vals {
			vals[i] = 20
		}
		doc := &seagull.PredictionDoc{
			ServerID: id, Region: "bench", Week: 1, Model: seagull.ModelPersistentPrevDay,
			BackupDay: day, WindowPoints: 12, IntervalMin: 5, Values: vals,
		}
		if err := db.Collection("predictions").Upsert("bench", fmt.Sprintf("%s/week-0001", id), doc); err != nil {
			tb.Fatal(err)
		}
		live := 20.0
		if s%2 == 1 {
			live = 60
		}
		for i := 0; i < 288; i++ {
			ing.Append(id, day.Add(time.Duration(i)*5*time.Minute), live)
		}
	}
	return stream.NewDriftDetector(ing, db), servers / 2
}

// streamDriftSweepCase sweeps 64 stored predictions against complete live
// backup days, reusing the predictions the warm-up sweep decoded.
func streamDriftSweepCase(tb testing.TB) func() {
	det, wantDrifted := streamDriftFixture(tb, 64)
	ctx := context.Background()
	return func() {
		rep, err := det.Sweep(ctx, "bench", 1)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Drifted != wantDrifted {
			tb.Fatalf("drifted = %d, want %d", rep.Drifted, wantDrifted)
		}
	}
}

// streamRefreshCase is one drift-triggered refresh through the warm pool
// (SSA): snapshot the live history, retrain (the memo collapses identical
// retrains), forecast, recompute the window and republish the prediction.
func streamRefreshCase(tb testing.TB) func() {
	db, err := cosmos.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	ing := stream.NewIngestor(stream.Config{Epoch: streamEpoch, Slots: 8064})
	reg := registry.New(nil)
	reg.Deploy(registry.Target{Scenario: "backup", Region: "bench"}, forecast.NameSSA, "bench")
	for i := 0; i < 7*288; i++ {
		ing.Append("bench-srv", streamEpoch.Add(time.Duration(i)*5*time.Minute),
			30+20*math.Sin(2*math.Pi*float64(i%288)/288))
	}
	doc := &seagull.PredictionDoc{
		ServerID: "bench-srv", Region: "bench", Week: 1, Model: forecast.NameSSA,
		BackupDay: streamEpoch.Add(7 * 24 * time.Hour), WindowPoints: 12, IntervalMin: 5,
		Values: make([]float64, 288),
	}
	if err := db.Collection("predictions").Upsert("bench", "bench-srv/week-0001", doc); err != nil {
		tb.Fatal(err)
	}
	pool := modelpool.New(modelpool.Config{}, modelpool.DefaultMaxIdle)
	tb.Cleanup(pool.Bind(reg))
	ref := stream.NewRefresher(ing, db, reg, pool, stream.RefreshConfig{})
	ctx := context.Background()
	return func() {
		if err := ref.RefreshServer(ctx, "bench", "bench-srv", 1); err != nil {
			tb.Fatal(err)
		}
	}
}

// streamSweeperCase is one background round over 64 stored predictions:
// find the region's latest summarized week, sweep it and queue the drifted
// half (already-pending jobs coalesce).
func streamSweeperCase(tb testing.TB) func() {
	det, wantDrifted := streamDriftFixture(tb, 64)
	db, err := cosmos.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Collection("summaries").Upsert("bench", "week-0001", map[string]int{"week": 1}); err != nil {
		tb.Fatal(err)
	}
	// The sweeper finds weeks through its own db handle but sweeps through
	// the fixture's detector, which reads the fixture's predictions.
	ref := stream.NewRefresher(stream.NewIngestor(stream.Config{}), db, registry.New(nil), nil, stream.RefreshConfig{})
	sw := stream.NewSweeper(db, det, ref, stream.SweeperConfig{})
	ctx := context.Background()
	return func() {
		before := sw.Stats().Drifted
		if err := sw.SweepOnce(ctx); err != nil {
			tb.Fatal(err)
		}
		if got := sw.Stats().Drifted - before; got != uint64(wantDrifted) {
			tb.Fatalf("round drifted %d, want %d", got, wantDrifted)
		}
	}
}

// streamSnapshotFixture primes an ingestor with `servers` live windows of
// `points` points each.
func streamSnapshotFixture(servers, points int) (*stream.Ingestor, stream.Config) {
	cfg := stream.Config{Epoch: streamEpoch, Slots: 4096}
	ing := stream.NewIngestor(cfg)
	for s := 0; s < servers; s++ {
		id := fmt.Sprintf("bench-srv-%04d", s)
		for i := 0; i < points; i++ {
			ing.Append(id, streamEpoch.Add(time.Duration(i)*5*time.Minute), 20+float64(i%11))
		}
	}
	return ing, cfg
}

// drainOnly runs nothing on a timer: shard snapshots are written when asked
// (or on Close).
var drainOnly = stream.DurabilityConfig{SnapshotEvery: -1}

func openLake(tb testing.TB) *lake.Store {
	store, err := lake.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

// streamSnapshotWriteCase persists 64 servers × 2016 live points (one week)
// through a fresh durability manager, which has seen no shard yet and so
// rewrites every populated one: open the log, snapshot, close.
func streamSnapshotWriteCase(tb testing.TB) func() {
	ing, _ := streamSnapshotFixture(64, 2016)
	store := openLake(tb)
	return func() {
		d := stream.NewDurability(ing, store, drainOnly)
		if err := d.Open(); err != nil {
			tb.Fatal(err)
		}
		if n, err := d.SnapshotNow(); err != nil || n == 0 {
			tb.Fatalf("snapshot wrote %d shards: %v", n, err)
		}
		if err := d.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// streamSnapshotRestoreCase recovers those snapshots into a cold ingestor:
// parse, CRC-verify and install every shard file.
func streamSnapshotRestoreCase(tb testing.TB) func() {
	ing, cfg := streamSnapshotFixture(64, 2016)
	store := openLake(tb)
	d := stream.NewDurability(ing, store, drainOnly)
	if err := d.Open(); err != nil {
		tb.Fatal(err)
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	// Only the snapshots stay: replaying the log is StreamWALReplay's row.
	logs, err := store.ListObjects(stream.WALPrefix)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range logs {
		if err := store.RemoveObject(name); err != nil {
			tb.Fatal(err)
		}
	}
	return func() {
		rec, err := stream.NewDurability(stream.NewIngestor(cfg), store, drainOnly).Recover()
		if err != nil || rec.Degraded() || rec.Servers != 64 {
			tb.Fatalf("recovered %+v: %v", rec, err)
		}
	}
}

// streamWALReplayCase recovers the log of a hard-killed server
// (64 servers × 576 points, never snapshotted) into a cold ingestor.
func streamWALReplayCase(tb testing.TB) func() {
	store := openLake(tb)
	cfg := stream.Config{Epoch: streamEpoch, Slots: 4096}
	dcfg := stream.DurabilityConfig{CommitEvery: time.Hour, SnapshotEvery: -1}
	ing := stream.NewIngestor(cfg)
	dur := stream.NewDurability(ing, store, dcfg)
	if _, err := dur.Recover(); err != nil {
		tb.Fatal(err)
	}
	if err := dur.Open(); err != nil {
		tb.Fatal(err)
	}
	const servers, points = 64, 576
	for s := 0; s < servers; s++ {
		id := fmt.Sprintf("bench-srv-%04d", s)
		for i := 0; i < points; i++ {
			ing.Append(id, streamEpoch.Add(time.Duration(i)*5*time.Minute), 20+float64(i%11))
		}
	}
	if err := dur.CommitNow(); err != nil {
		tb.Fatal(err)
	}
	// Closing would snapshot the shards and truncate the logs, leaving
	// nothing to replay, so the manager stays open until the test ends.
	tb.Cleanup(func() { _ = dur.Close() })
	return func() {
		rec, err := stream.NewDurability(stream.NewIngestor(cfg), store, dcfg).Recover()
		if err != nil {
			tb.Fatal(err)
		}
		if rec.WALRecords != servers*points {
			tb.Fatalf("replayed %d records, want %d", rec.WALRecords, servers*points)
		}
	}
}

// pipelineWeekCase is one weekly RunWeek over 40 servers and two weeks of
// extracts, on one worker so the count is the same on every host.
// pipelineWeekCase is one RunWeek over 40 servers, week 1 with week 0 as
// history. Warm, the system's own Pipeline runs it, after its first two runs
// kept both weeks; cold, every op runs on a fresh Pipeline, which parses both.
func pipelineWeekCase(cold bool) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: tb.TempDir()})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = sys.Close() })
		fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "bench", Servers: 40, Weeks: 2, Seed: 1})
		if _, err := sys.LoadFleet(fleet); err != nil {
			tb.Fatal(err)
		}
		cfg := seagull.PipelineConfig{Region: "bench", Week: 1, Workers: 1}
		run := func(p *pipeline.Pipeline) {
			res, err := p.RunWeek(context.Background(), cfg)
			if err != nil {
				tb.Fatal(err)
			}
			if res.Predicted == 0 {
				tb.Fatal("no predictions")
			}
		}
		if cold {
			return func() { run(pipeline.New(sys.Lake, sys.DB, sys.Registry, sys.Dashboard)) }
		}
		run(sys.Pipeline)
		run(sys.Pipeline)
		return func() { run(sys.Pipeline) }
	}
}

// admissionAcceptCase is the uncontended admit/release round trip every
// served request pays.
func admissionAcceptCase(tb testing.TB) func() {
	l := admission.NewLimiter(admission.Config{MaxInflight: 64, Target: time.Second})
	ep := l.Endpoint("bench", admission.Predict, time.Second)
	ctx := context.Background()
	return func() {
		tk, res := ep.Acquire(ctx, false)
		if res.Verdict != admission.Admitted {
			tb.Fatalf("acquire: %v", res.Verdict)
		}
		tk.Release()
	}
}

// admissionShedCase is the overload path: the limit is taken, the queue is
// full, and every arrival is shed with a computed Retry-After.
func admissionShedCase(tb testing.TB) func() {
	l := admission.NewLimiter(admission.Config{MaxInflight: 1, QueueCap: 1, Target: time.Second})
	ep := l.Endpoint("bench", admission.Predict, time.Second)
	blocker, res := ep.Acquire(context.Background(), false)
	if res.Verdict != admission.Admitted {
		tb.Fatalf("blocker acquire: %v", res.Verdict)
	}
	tb.Cleanup(blocker.Release)
	qctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if tk, qres := ep.Acquire(qctx, false); qres.Verdict == admission.Admitted {
			tk.Release()
		}
	}()
	tb.Cleanup(func() { cancel(); <-done })
	for deadline := time.Now().Add(2 * time.Second); l.Stats().InQueue < 1; {
		if time.Now().After(deadline) {
			tb.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	ctx := context.Background()
	return func() {
		_, sres := ep.Acquire(ctx, false)
		if sres.Verdict != admission.Shed {
			tb.Fatalf("acquire: %v, want shed", sres.Verdict)
		}
		if sres.RetryAfter <= 0 {
			tb.Fatal("shed without Retry-After")
		}
	}
}
