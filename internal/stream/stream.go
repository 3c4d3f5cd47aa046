// Package stream is Seagull's online telemetry layer: it replaces the
// weekly batch-only seam between production telemetry and the pipeline with
// continuous ingestion and incremental, drift-triggered forecast refresh.
//
// Three components compose end to end:
//
//   - Ingestor accepts out-of-order per-server load points into
//     fixed-capacity per-server slot rings, lock-striped across shards. The
//     warm append path is allocation-free; points roll up to the pipeline's
//     slot granularity as they arrive, so a server's live history is always
//     one zero-copy view away from being model-ready.
//
//   - DriftDetector compares live slots against the stored PredictionDocs
//     (the pipeline's cosmos output) using the paper's Definition 1/2
//     bucket-ratio machinery: a stored prediction whose live actuals fall
//     below the accuracy threshold has drifted.
//
//   - Refresher retrains only the drifted servers — through a warm model
//     pool (internal/modelpool, the same pool type the serving layer uses) —
//     and republishes the refreshed PredictionDocs to cosmos. A fleet where 2% of servers
//     drifted costs ~2% of a weekly pipeline run. Queued refreshes drain
//     across a bounded parallel.Pool (RefreshConfig.Workers), and a full
//     queue is surfaced as a Dropped count rather than silently discarded.
//
//   - Sweeper makes the loop self-driving: a ticker-driven background round
//     discovers each region's latest summarized week from the document
//     store and sweeps it with zero client involvement, queueing drifted
//     servers into the Refresher.
//
//   - Ring snapshots (snapshot.go) make the layer durable: the live windows
//     serialize to a lake object on drain and restore on startup, so a
//     restart no longer loses the month of telemetry the rings hold.
//
// Concurrency: every component is safe for concurrent use. The ingestor
// lock-stripes rings across shards (warm appends are allocation-free);
// zero-copy views are only valid under WithView's shard lock, with
// SnapshotInto as the stable-copy escape for long work like training.
//
// Equivalence guarantees, all pinned by tests: rolled-up ring state is
// independent of arrival order and duplication (first write wins); a
// snapshot→restore round trip is observationally identical to never
// restarting (snapshot_test.go); refreshed predictions are bit-identical to
// what a full pipeline.RunWeek would store (equiv_test.go); and a parallel
// drain republishes exactly what a serial drain would (parallel_test.go).
// The whole layer is a scheduling and durability optimization, never an
// accuracy trade.
package stream
