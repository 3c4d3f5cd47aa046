package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metric describes one reported number. bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	what   string
}

// endToEndMetrics is what a caller of Seagull sees; every workload reports
// all of them from an untraced run. Two of the issue's eight are per-layer
// metrics instead, under the same names: failed_ratio, because BENCHMARK.json
// cannot bound a metric whose healthy value is 0 (failures are the
// `failed`/`attempted` fields of every run), and latency_p95_ms, because its
// run-to-run spread on the batch and ingest workloads is wider than a tenth,
// the widest bound the issue allows (README, "Metrics that moved").
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower", 0.25, "set-up, median of three: fleet generation, lake extract, warm-up RunWeeks, listeners, ring prefill, warm-up traffic"},
	{"throughput_ops_s", "op/s", "higher", 0.25, "median of the ten sub-window rates of successful ops per wall second"},
	{"latency_p50_ms", "ms", "lower", 0.25, "median latency over every timed call"},
	{"cpu_us_per_op", "us/op", "lower", 0.25, "process user+system CPU over the timed window per successful op"},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05, "heap bytes allocated over the timed window per successful op, generator included"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "resident-set high-water mark of the workload's process"},
}

// perLayerMetrics come from a traced run: spans around the public handlers
// and in-process calls, Stats() deltas over the traced window, and
// single-threaded probes replaying the workload's inputs into each module. A
// metric reads 0 on a workload that does not run its layer.
var perLayerMetrics = []metric{
	// client / bench
	{"client.rtt_us", "us", "lower", 0, "mean latency of a timed call as the caller sees it"},
	{"client.net_us", "us", "lower", 0, "rtt minus the router span: loopback plus the generator's HTTP client"},
	{"client.rtt_p99_us", "us", "lower", 0, "99th percentile of the same"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "throughput lost in the traced window against the untraced window before it"},
	{"bench.window_cv_pct", "%", "lower", 0, "coefficient of variation of the ten sub-window rates"},
	{"bench.budget_unattributed_pct", "%", "lower", 0, "share of the call no probe-backed layer explains"},
	{"failed_ratio", "ratio", "lower", 0, "failed ops over attempted ops"},
	{"latency_p95_ms", "ms", "lower", 0, "95th percentile latency over the traced window's timed calls"},
	// router / shard
	{"router.handler_us", "us", "lower", 0, "mean span of Router.Handler()"},
	{"router.self_us", "us", "lower", 0, "router span minus the replica spans inside it"},
	{"router.fanout", "count", "lower", 0, "replica calls per routed call"},
	{"shard.owner_ns", "ns", "lower", 0, "Map.Owner of one server ID"},
	{"shard.split_us", "us", "lower", 0, "Map.Split of one call's server IDs"},
	// serving
	{"serving.handler_us", "us", "lower", 0, "mean span of a replica's Service.Handler()"},
	{"serving.wire_self_us", "us", "lower", 0, "replica handler span minus the matching in-process call"},
	{"serving.json_decode_us", "us", "lower", 0, "decoding one request body, as a replica received it, into the wire type"},
	{"serving.json_encode_us", "us", "lower", 0, "encoding one reply from the wire type"},
	{"serving.req_bytes", "B", "lower", 0, "mean request body a replica received"},
	{"serving.resp_bytes", "B", "lower", 0, "mean reply body a replica sent"},
	{"serving.predict_inproc_us", "us", "lower", 0, "Service.Predict on a received request"},
	{"serving.batch_inproc_us", "us", "lower", 0, "Service.PredictBatch on a received sub-batch"},
	{"serving.ingest_inproc_us", "us", "lower", 0, "Service.Ingest on a fresh sub-batch"},
	{"serving.live_predict_inproc_us", "us", "lower", 0, "Service.Predict with live_history"},
	{"serving.pool_checkout_return_ns", "ns", "lower", 0, "ModelPool.Checkout plus Return, warm"},
	{"serving.pool_hit_ratio", "ratio", "higher", 0, "pool hits over checkouts in the traced window"},
	// admission
	{"admission.acquire_release_ns", "ns", "lower", 0, "Endpoint.Acquire plus Ticket.Release, uncontended"},
	{"admission.shed_count", "count", "lower", 0, "429/503 replies the clients saw"},
	// forecast / metrics / parallel
	{"forecast.persistent_train_infer_us", "us", "lower", 0, "persistent-prev-day Train plus Forecast(288)"},
	{"forecast.ssa_train_us", "us", "lower", 0, "SSA Train on one history"},
	{"forecast.ssa_infer_us", "us", "lower", 0, "SSA Forecast(288)"},
	{"metrics.ll_window_us", "us", "lower", 0, "LowestLoadWindow over a 288-point forecast"},
	{"parallel.foreach_overhead_us", "us", "lower", 0, "Pool.ForEach over 16 no-ops"},
	// stream
	{"stream.append_ns", "ns", "lower", 0, "Ingestor.Append of one point, warm"},
	{"stream.append_series_us", "us", "lower", 0, "Ingestor.AppendSeries of 12 points"},
	{"stream.view_us", "us", "lower", 0, "SnapshotInto of one live window"},
	{"stream.wal_commit_ms", "ms", "lower", 0, "CommitNow after one call's points"},
	{"stream.wal_bytes_per_point", "B", "lower", 0, "WAL bytes committed per committed point"},
	{"stream.wal_dropped", "count", "lower", 0, "points the WAL buffers dropped"},
	{"stream.snapshot_ms", "ms", "lower", 0, "SnapshotNow of the dirty shards"},
	{"stream.snapshots", "count", "higher", 0, "shard snapshots written in the traced window"},
	{"stream.recover_ms", "ms", "lower", 0, "Recover of one replica from the lake"},
	{"stream.recover_points_per_s", "1/s", "higher", 0, "points restored per second of Recover"},
	{"stream.lost_acked_points", "count", "lower", 0, "committed points missing after Recover; must be 0"},
	{"stream.sweep_ms", "ms", "lower", 0, "DriftDetector.Sweep of one region-week"},
	{"stream.sweep_checked_per_s", "1/s", "higher", 0, "stored predictions checked per second of Sweep"},
	{"stream.drift_hit_ratio", "ratio", "higher", 0, "injected servers found drifted over injected"},
	{"stream.refresh_server_us", "us", "lower", 0, "Refresher.RefreshServer of one drifted server"},
	{"stream.drain_ms", "ms", "lower", 0, "mean span of Refresher.Drain"},
	{"stream.refresh_dropped", "count", "lower", 0, "refresh jobs a full queue rejected"},
	{"stream.sweeper_round_ms", "ms", "lower", 0, "mean span of Sweeper.SweepOnce"},
	// cosmos / lake / extract
	{"cosmos.upsert_us", "us", "lower", 0, "Collection.Upsert of one PredictionDoc"},
	{"cosmos.get_us", "us", "lower", 0, "Collection.Get of one PredictionDoc"},
	{"cosmos.query_ms", "ms", "lower", 0, "Collection.Query over one region's predictions"},
	{"cosmos.doc_bytes", "B", "lower", 0, "mean stored PredictionDoc"},
	{"lake.read_mb_per_s", "MB/s", "higher", 0, "Store.Reader of one week's extract, drained"},
	{"lake.extract_bytes", "B", "lower", 0, "size of one week's extract"},
	{"extract.ingest_ms", "ms", "lower", 0, "extract.Ingest of one week"},
	// pipeline / validate / classify / scheduler
	{"pipeline.ingestion_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.validation_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.features_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.deployment_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.train_infer_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.accuracy_ms", "ms", "lower", 0, "RunWeek stage timing"},
	{"pipeline.total_ms", "ms", "lower", 0, "RunWeek Result.Total"},
	{"validate.rows_ms", "ms", "lower", 0, "ValidateRows over one week's extract"},
	{"classify.categorize_us", "us", "lower", 0, "Categorize of one server's history"},
	{"scheduler.schedule_week_ms", "ms", "lower", 0, "mean span of ScheduleBackups"},
	// process
	{"runtime.gc_cycles", "count", "lower", 0, "GC cycles in the traced window"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "total GC pause in the traced window"},
	{"runtime.allocs_per_op", "count", "lower", 0, "heap objects allocated per successful op"},
	{"runtime.goroutines_peak", "count", "lower", 0, "most goroutines seen in the traced window"},
}

// workloadSpec names one workload. The sizes inside each workload are frozen
// constants in its own file; warmCalls is the warm-up traffic per client,
// part of set-up.
type workloadSpec struct {
	name      string
	why       string
	warmCalls int
	build     func() workload
}

// budgetRow is one line of a workload's budget table.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Depth  int     `json:"depth"`
	Us     float64 `json:"us_per_call"`
	Pct    float64 `json:"pct_of_call"`
	Allocs float64 `json:"allocs"`
	Source string  `json:"source"` // span, probe, stats or derived
}

// layerSet collects a traced run's per-layer metrics and its budget table.
type layerSet struct {
	m      map[string]float64
	budget []budgetRow
}

var perLayerNames = func() map[string]bool {
	names := map[string]bool{}
	for _, m := range perLayerMetrics {
		names[m.name] = true
	}
	return names
}()

// set records a per-layer metric; a name outside the catalogue is a bug in
// the benchmark, not in the program.
func (l *layerSet) set(name string, v float64) {
	if !perLayerNames[name] {
		panic("benchmark: metric " + name + " is not in the per-layer catalogue")
	}
	l.m[name] = v
}

// row appends a budget line; us is per timed call and callUs the whole call.
func (l *layerSet) row(layer string, depth int, us, callUs, allocs float64, source string) {
	pct := 0.0
	if callUs > 0 {
		pct = 100 * us / callUs
	}
	l.budget = append(l.budget, budgetRow{Layer: layer, Depth: depth, Us: us, Pct: pct, Allocs: allocs, Source: source})
}

// unattributed records how much of the call the probe-backed layers leave
// unexplained.
func (l *layerSet) unattributed(callUs, attributedUs float64) {
	pct := 0.0
	if callUs > 0 {
		pct = 100 * (callUs - attributedUs) / callUs
	}
	l.set("bench.budget_unattributed_pct", pct)
	l.row("(unattributed)", 1, callUs-attributedUs, callUs, 0, "derived")
}

// probe times fn single-threaded: five batches sized to fill about budget,
// the median batch mean in nanoseconds, and heap objects allocated per call.
func probe(budget time.Duration, fn func()) (ns, allocs float64) {
	t0 := time.Now()
	fn()
	once := max(time.Since(t0), 50*time.Nanosecond)
	const batches = 5
	iters := int(max(int64(budget/batches/once), 1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	means := make([]float64, batches)
	for b := range means {
		t := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		means[b] = float64(time.Since(t)) / float64(iters)
	}
	runtime.ReadMemStats(&ms1)
	return median(means), float64(ms1.Mallocs-ms0.Mallocs) / float64(batches*iters)
}

// probeBudget is the time one probe may fill.
const probeBudget = 40 * time.Millisecond

// hostFacts says where the numbers were taken.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// run.sh builds without VCS stamping (the driver's checkout is no git
	// repository) and passes the commit along when it can find one.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		h.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: %v", err))
	}
}
