package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/lake"
	"seagull/internal/parallel"
	"seagull/internal/simclock"
)

// Durability bounds what a hard kill can cost: a WAL group commit every δ
// plus periodic incremental snapshots guarantee that restart recovers the
// live window to within δ of the moment of death (restore ≥ T-δ). The
// division of labor:
//
//   - Append hot path: buffers accepted points per shard (0 allocs/op). An
//     append that finds its shard's buffer full flushes that shard inline
//     first (back-pressure, not loss) and refuses the point only if the
//     flush fails.
//   - Maintenance goroutine (one per Durability): flushes buffers to
//     per-shard WALs every CommitEvery (δ), and every SnapshotEvery rewrites
//     the shard snapshots whose generation counter moved — then truncates
//     those shards' WALs, which the fresh snapshot now covers.
//   - Recover (boot): restores every per-shard snapshot, then replays every
//     WAL; first-write-wins ring puts make the overlap idempotent. A file
//     that fails to restore is skipped — recovery salvages everything else
//     and reports the failure so serving can declare itself degraded rather
//     than silently cold-start.

// ObjectStore is the slice of the lake's object API the durability layer
// consumes. *lake.Store implements it; so does *lake.FaultStore, which is how
// the crash-recovery matrix injects torn writes, short reads, corruption and
// ENOSPC under it.
type ObjectStore interface {
	ObjectWriter(name string) (io.WriteCloser, error)
	ObjectReader(name string) (io.ReadCloser, error)
	ObjectAppender(name string) (lake.AppendObject, error)
	ListObjects(prefix string) ([]string, error)
	RemoveObject(name string) error
}

// DurabilityConfig parameterizes a Durability. The zero value selects the
// production defaults.
type DurabilityConfig struct {
	// Namespace scopes every durable object name under
	// "replicas/<Namespace>/", so N sharded serving replicas can persist
	// their WALs and ring snapshots into one shared lake without colliding
	// — each replica recovers exactly its own shard's state. Empty (the
	// default) keeps the original single-process object names, so existing
	// lakes restore unchanged.
	Namespace string
	// CommitEvery is the WAL group-commit interval — the δ in restore ≥ T-δ.
	// Default 100ms.
	CommitEvery time.Duration
	// SnapshotEvery is the incremental snapshot interval. Unchanged shards
	// are skipped, so a short interval only costs where ingest is hot.
	// Default 30s; negative disables the ticker (snapshots then happen only
	// on Close or explicit SnapshotNow).
	SnapshotEvery time.Duration
	// BufferEntries caps each shard's pending buffer between commits. An
	// append that finds its shard's buffer full flushes that shard to the log
	// itself before it is acknowledged, so a larger buffer trades memory for
	// fewer inline flushes, never for loss. Default 4096.
	BufferEntries int
	// Clock paces the group-commit and snapshot tickers; nil means the wall
	// clock.
	Clock simclock.Clock
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.CommitEvery <= 0 {
		c.CommitEvery = 100 * time.Millisecond
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.BufferEntries <= 0 {
		c.BufferEntries = 4096
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// shardWAL is one shard's open log handle. size tracks the last known-good
// durable length so a failed append can be rolled back to a clean frame
// boundary (torn frames then only ever come from real crashes, at the tail).
type shardWAL struct {
	obj  lake.AppendObject
	size int64
}

// Durability owns the WAL + incremental-snapshot lifecycle for one Ingestor
// over one store. Construct with NewDurability, then Recover (boot), Open or
// Start, and Close on drain.
type Durability struct {
	ing   *Ingestor
	store ObjectStore
	cfg   DurabilityConfig

	// opMu serializes maintenance operations (commit, snapshot, open,
	// close): they share the scratch buffers below and each shard's WAL
	// handle. The append hot path never takes it.
	opMu    sync.Mutex
	opened  bool
	closed  bool
	wals    []*shardWAL
	lastGen []uint64
	spare   []walEntry // commit swap buffer, recycled through takePending
	scratch []byte     // frame/snapshot serialization buffer

	kick   chan struct{}
	stop   context.CancelFunc
	loopWG sync.WaitGroup

	rec atomic.Pointer[RecoveryStats]

	commits        atomic.Uint64
	commitRecords  atomic.Uint64
	commitBytes    atomic.Uint64
	commitErrors   atomic.Uint64
	refused        atomic.Uint64
	snapshots      atomic.Uint64
	snapshotErrors atomic.Uint64
	truncations    atomic.Uint64
}

// NewDurability wires a manager for ing over store. Nothing is opened or
// scheduled yet: call Recover to restore state, then Start (or Open) to
// begin persisting.
func NewDurability(ing *Ingestor, store ObjectStore, cfg DurabilityConfig) *Durability {
	return &Durability{
		ing:     ing,
		store:   store,
		cfg:     cfg.withDefaults(),
		lastGen: make([]uint64, len(ing.sh)),
		kick:    make(chan struct{}, 1),
	}
}

// NamespacePrefix returns the lake object prefix a durability namespace
// scopes its state under ("" for the default, single-process namespace).
func NamespacePrefix(namespace string) string {
	if namespace == "" {
		return ""
	}
	return "replicas/" + namespace + "/"
}

// objName scopes a durable object name under the configured namespace.
func (d *Durability) objName(name string) string {
	return NamespacePrefix(d.cfg.Namespace) + name
}

// RecoveryStats reports what Recover salvaged.
type RecoveryStats struct {
	// SnapshotShards counts per-shard snapshot objects restored.
	SnapshotShards int `json:"snapshot_shards"`
	// Servers counts servers live after restore + replay.
	Servers int `json:"servers"`
	// WALFiles counts shard logs replayed; WALRecords the points they
	// re-applied; WALDuplicates the points a snapshot already covered.
	WALFiles      int `json:"wal_files"`
	WALRecords    int `json:"wal_records"`
	WALDuplicates int `json:"wal_duplicates"`
	// TornTails counts logs that ended in a torn or CRC-failing frame — the
	// expected residue of a hard kill, trimmed on the next commit cycle.
	TornTails int `json:"torn_tails"`
	// Failures lists objects that could not be restored (corrupt snapshot,
	// unreadable WAL, wrong geometry). Non-empty means recovery was partial:
	// serving should report degraded rather than pretend full health.
	Failures []string `json:"failures,omitempty"`
}

// Degraded reports whether any durable state failed to restore.
func (r RecoveryStats) Degraded() bool { return len(r.Failures) > 0 }

// String renders a one-line boot summary.
func (r RecoveryStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d servers from %d shard snapshots", r.Servers, r.SnapshotShards)
	fmt.Fprintf(&b, ", %d WAL records replayed from %d logs", r.WALRecords, r.WALFiles)
	if r.TornTails > 0 {
		fmt.Fprintf(&b, ", %d torn tails trimmed", r.TornTails)
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(&b, ", DEGRADED (%s)", strings.Join(r.Failures, "; "))
	}
	return b.String()
}

// Recover restores the ingestor from the store: every per-shard snapshot
// first, then every WAL replayed over it. Per-shard recovery is embarrassingly
// parallel, so files are processed concurrently. A file that fails to
// restore is recorded in Failures and skipped — everything else is still
// salvaged, no partial object is ever installed, and the error surface is
// the returned stats, not an abort. Call once, on boot, before Open/Start.
func (d *Durability) Recover() (RecoveryStats, error) {
	var rec RecoveryStats
	var mu sync.Mutex // guards rec across the parallel file workers
	pool := parallel.NewPool(0)

	snaps, err := d.store.ListObjects(d.objName(ShardSnapshotPrefix))
	if err != nil {
		return rec, fmt.Errorf("stream: list snapshots: %w", err)
	}
	pool.ForEach(len(snaps), func(i int) error {
		err := d.restoreObject(snaps[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", snaps[i], err))
		} else {
			rec.SnapshotShards++
		}
		return nil
	})

	logs, err := d.store.ListObjects(d.objName(WALPrefix))
	if err != nil {
		return rec, fmt.Errorf("stream: list WALs: %w", err)
	}
	pool.ForEach(len(logs), func(i int) error {
		r, err := d.store.ObjectReader(logs[i])
		var rep walReplay
		if err == nil {
			rep, err = d.ing.replayWAL(r)
			r.Close()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", logs[i], err))
			return nil
		}
		rec.WALFiles++
		rec.WALRecords += rep.records
		rec.WALDuplicates += rep.duplicates
		if rep.torn {
			rec.TornTails++
		}
		return nil
	})

	sort.Strings(rec.Failures) // parallel workers finish in any order
	rec.Servers = len(d.ing.Servers())
	// Recovered state counts as snapshotted-at-gen-current only after the
	// next snapshot cycle actually writes it; leave lastGen at zero so every
	// populated shard is captured on the first cycle (and its replayed WAL
	// records are truncated away only then).
	d.rec.Store(&rec)
	return rec, nil
}

// restoreObject restores one snapshot object into the ingestor.
func (d *Durability) restoreObject(name string) error {
	r, err := d.store.ObjectReader(name)
	if err != nil {
		return err
	}
	defer r.Close()
	return d.ing.RestoreSnapshot(r)
}

// Open arms the ingestor's WAL buffers and opens each shard's log, writing
// fresh headers where absent. Idempotent.
func (d *Durability) Open() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	if d.opened {
		return nil
	}
	d.wals = make([]*shardWAL, len(d.ing.sh))
	for i := range d.wals {
		w, err := d.openShardWAL(i)
		if err != nil {
			for _, open := range d.wals {
				if open != nil {
					open.obj.Close()
				}
			}
			d.wals = nil
			return err
		}
		d.wals[i] = w
	}
	d.ing.attachWAL(d.cfg.BufferEntries, d.kick, d.flushFull)
	d.opened = true
	return nil
}

// openShardWAL opens shard i's log. An empty or undersized log gets a fresh
// header; an existing one is trusted (Recover already consumed and validated
// it — and even if stale bytes survived, replay's CRC framing contains them).
func (d *Durability) openShardWAL(i int) (*shardWAL, error) {
	obj, err := d.store.ObjectAppender(d.objName(walObject(i)))
	if err != nil {
		return nil, fmt.Errorf("stream: open WAL %d: %w", i, err)
	}
	size, err := obj.Size()
	if err != nil {
		obj.Close()
		return nil, fmt.Errorf("stream: size WAL %d: %w", i, err)
	}
	if size < int64(walHeaderLen) {
		if err := obj.Truncate(0); err != nil {
			obj.Close()
			return nil, fmt.Errorf("stream: reset WAL %d: %w", i, err)
		}
		hdr := appendWALHeader(nil, &d.ing.cfg)
		if _, err := obj.Write(hdr); err != nil {
			obj.Close()
			return nil, fmt.Errorf("stream: write WAL header %d: %w", i, err)
		}
		if err := obj.Sync(); err != nil {
			obj.Close()
			return nil, fmt.Errorf("stream: sync WAL header %d: %w", i, err)
		}
		size = int64(walHeaderLen)
	}
	return &shardWAL{obj: obj, size: size}, nil
}

// Start opens the manager and launches the maintenance goroutine: WAL group
// commits every CommitEvery (sooner when a shard buffer passes half full),
// incremental snapshots every SnapshotEvery. It stops when ctx is canceled;
// Close then performs the final flush.
func (d *Durability) Start(ctx context.Context) error {
	if err := d.Open(); err != nil {
		return err
	}
	ctx, d.stop = context.WithCancel(ctx)
	d.loopWG.Add(1)
	go d.maintain(ctx)
	return nil
}

func (d *Durability) maintain(ctx context.Context) {
	defer d.loopWG.Done()
	commit := d.cfg.Clock.NewTicker(d.cfg.CommitEvery)
	defer commit.Stop()
	var snap <-chan time.Time
	if d.cfg.SnapshotEvery > 0 {
		t := d.cfg.Clock.NewTicker(d.cfg.SnapshotEvery)
		defer t.Stop()
		snap = t.C()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-commit.C():
			d.CommitNow()
		case <-d.kick:
			d.CommitNow()
		case <-snap:
			d.SnapshotNow()
		}
	}
}

// CommitNow group-commits every shard's pending points to its WAL and syncs.
// Errors are counted and the affected entries requeued for the next cycle;
// the first error is returned (tests assert on it, serve logs it).
func (d *Durability) CommitNow() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	if !d.opened || d.closed {
		return nil
	}
	var first error
	for i := range d.wals {
		if err := d.flushShard(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errClosed refuses an inline flush after Close has released the logs.
var errClosed = errors.New("stream: durability closed")

// flushFull is the append path's flush for a full shard buffer: it takes
// opMu — so it waits for a running commit or snapshot to finish — and writes
// shard i's pending entries to its log. An error makes the appender refuse
// its point, so failures here count the refused points.
func (d *Durability) flushFull(i int) error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	err := errClosed
	if !d.closed {
		err = d.flushShard(i)
	}
	if err != nil {
		d.refused.Add(1)
	}
	return err
}

// flushShard writes shard i's pending entries to its log. Caller holds opMu.
func (d *Durability) flushShard(i int) error {
	pend := d.ing.takePending(i, d.spare, d.cfg.BufferEntries)
	if len(pend) == 0 {
		d.spare = pend
		return nil
	}
	var err error
	d.scratch, err = d.writeEntries(d.wals[i], pend, d.scratch)
	if err != nil {
		d.commitErrors.Add(1)
		// Put the batch back so the next cycle retries it: a transient
		// store error must not silently void the δ guarantee.
		d.ing.requeuePending(i, pend)
		d.spare = nil // pend is now owned by the shard again
		return err
	}
	d.commits.Add(1)
	d.commitRecords.Add(uint64(len(pend)))
	d.spare = pend
	return nil
}

// writeEntries appends entries to w as frames and syncs, serializing into buf
// (returned grown, for reuse). On failure the log is rolled back to its last
// known-good size, so a store hiccup never leaves a mid-file torn frame that
// would poison every record after it.
func (d *Durability) writeEntries(w *shardWAL, entries []walEntry, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for _, e := range entries {
		buf = appendWALFrame(buf, e)
	}
	_, werr := w.obj.Write(buf)
	if werr == nil {
		werr = w.obj.Sync()
	}
	if werr != nil {
		// Trim any partial frame; if even the rollback fails, the reopen
		// path (or replay's CRC) still contains the damage.
		if terr := w.obj.Truncate(w.size); terr == nil {
			d.truncations.Add(1)
		}
		return buf, werr
	}
	w.size += int64(len(buf))
	d.commitBytes.Add(uint64(len(buf)))
	return buf, nil
}

// SnapshotNow writes an incremental snapshot: every shard whose generation
// counter moved since its last snapshot is re-serialized and atomically
// replaced; unchanged shards cost nothing. Each successfully snapshotted
// shard's WAL is truncated back to its header — everything in it is now
// covered. Returns how many shards were written, and the first error.
func (d *Durability) SnapshotNow() (int, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.snapshotLocked()
}

func (d *Durability) snapshotLocked() (int, error) {
	if !d.opened || d.closed {
		return 0, nil
	}
	wrote := 0
	var first error
	for i := range d.ing.sh {
		ok, err := d.snapshotShard(i)
		if ok {
			wrote++
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return wrote, first
}

// snapshotShard captures and persists one shard. Caller holds opMu.
//
// Ordering is what makes this safe against a kill at any line: pending WAL
// entries swapped out together with the ring capture are flushed to the log
// BEFORE the snapshot replace, and the log is truncated only AFTER the
// replace succeeds. Points arriving after the capture only accumulate in the
// shard buffer (no one else writes the log file), so truncation can never
// discard a point the snapshot does not cover.
func (d *Durability) snapshotShard(i int) (bool, error) {
	sh := &d.ing.sh[i]
	w := d.wals[i]

	spare := d.spare
	if cap(spare) < d.cfg.BufferEntries {
		spare = make([]walEntry, 0, d.cfg.BufferEntries)
	}
	sh.mu.Lock()
	gen := sh.gen
	if gen == d.lastGen[i] {
		sh.mu.Unlock()
		return false, nil
	}
	buf := appendShardSnapshot(d.scratch[:0], &d.ing.cfg, sh)
	pend := sh.pend
	sh.pend = spare[:0]
	sh.mu.Unlock()
	d.scratch = buf

	if len(pend) > 0 {
		// The capture covers these entries, but if the snapshot write below
		// fails they must already be in the log — otherwise a kill right
		// after would lose them with nothing to replay. A private buffer:
		// d.scratch holds the snapshot capture.
		if _, err := d.writeEntries(w, pend, nil); err != nil {
			d.commitErrors.Add(1)
			d.ing.requeuePending(i, pend)
			d.spare = nil
			return false, err
		}
		d.commits.Add(1)
		d.commitRecords.Add(uint64(len(pend)))
	}
	d.spare = pend

	obj, err := d.store.ObjectWriter(d.objName(shardSnapshotObject(i)))
	if err == nil {
		_, err = obj.Write(d.scratch)
		if err == nil {
			err = obj.Close()
		} else if ab, ok := obj.(interface{ Abort() }); ok {
			ab.Abort()
		} else {
			obj.Close()
		}
	}
	if err != nil {
		// The replace failed atomically: the previous snapshot and the WAL
		// (which now holds everything since it) still reconstruct the shard.
		d.snapshotErrors.Add(1)
		return false, fmt.Errorf("stream: snapshot shard %d: %w", i, err)
	}
	d.snapshots.Add(1)
	d.lastGen[i] = gen

	if w.size > int64(walHeaderLen) {
		if err := w.obj.Truncate(int64(walHeaderLen)); err != nil {
			// Harmless to leave: replay of covered records is idempotent.
			return true, nil
		}
		w.size = int64(walHeaderLen)
		d.truncations.Add(1)
	}
	return true, nil
}

// Close stops the maintenance goroutine, performs a final commit + snapshot
// (so a clean drain loses nothing at all), and closes the shard logs. The
// manager cannot be reused after Close.
func (d *Durability) Close() error {
	if d.stop != nil {
		d.stop()
		d.loopWG.Wait()
	}
	d.opMu.Lock()
	defer d.opMu.Unlock()
	if !d.opened || d.closed {
		d.closed = true
		return nil
	}
	var first error
	for i := range d.wals {
		if err := d.flushShard(i); err != nil && first == nil {
			first = err
		}
	}
	if _, err := d.snapshotLocked(); err != nil && first == nil {
		first = err
	}
	for _, w := range d.wals {
		if err := w.obj.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.closed = true
	return first
}

// DurabilityStats is the /varz view of the durability layer.
type DurabilityStats struct {
	// WAL is always true: an open Durability always writes the log. The
	// field keeps the /varz and /metrics shapes.
	WAL           bool    `json:"wal" metric:"gauge seagull_wal_enabled 1 when the write-ahead log is active."`
	DeltaMS       float64 `json:"delta_ms" metric:"gauge seagull_wal_commit_interval_ms Configured WAL commit interval (delta) in milliseconds."`
	Commits       uint64  `json:"wal_commits" metric:"counter seagull_wal_commits_total WAL commit cycles."`
	CommitRecords uint64  `json:"wal_records" metric:"counter seagull_wal_records_total Telemetry records committed to the WAL."`
	CommitBytes   uint64  `json:"wal_bytes" metric:"counter seagull_wal_bytes_total Bytes committed to the WAL."`
	CommitErrors  uint64  `json:"wal_errors" metric:"counter seagull_wal_errors_total WAL commit errors."`
	Dropped       uint64  `json:"wal_dropped" metric:"counter seagull_wal_dropped_total Points refused unapplied because a full WAL buffer could not be flushed."`
	Snapshots     uint64  `json:"snapshots" metric:"counter seagull_snapshots_total Incremental snapshots taken."`
	SnapshotErrs  uint64  `json:"snapshot_errors" metric:"counter seagull_snapshot_errors_total Snapshot failures."`
	Truncations   uint64  `json:"wal_truncations" metric:"counter seagull_wal_truncations_total WAL truncations after snapshots."`

	// Boot recovery outcome, frozen at Recover time.
	Recovered *RecoveryStats `json:"recovered,omitempty"`
}

// Add folds another replica's snapshot into s, for fleet-wide totals. The
// counters add; WAL and DeltaMS are configuration and keep the receiver's
// values; per-replica recovery outcomes do not sum meaningfully, so the
// total carries none.
func (s *DurabilityStats) Add(o DurabilityStats) {
	s.Commits += o.Commits
	s.CommitRecords += o.CommitRecords
	s.CommitBytes += o.CommitBytes
	s.CommitErrors += o.CommitErrors
	s.Dropped += o.Dropped
	s.Snapshots += o.Snapshots
	s.SnapshotErrs += o.SnapshotErrs
	s.Truncations += o.Truncations
	s.Recovered = nil
}

// Stats assembles a point-in-time durability snapshot.
func (d *Durability) Stats() DurabilityStats {
	return DurabilityStats{
		WAL:           true,
		DeltaMS:       float64(d.cfg.CommitEvery) / float64(time.Millisecond),
		Commits:       d.commits.Load(),
		CommitRecords: d.commitRecords.Load(),
		CommitBytes:   d.commitBytes.Load(),
		CommitErrors:  d.commitErrors.Load(),
		Dropped:       d.refused.Load(),
		Snapshots:     d.snapshots.Load(),
		SnapshotErrs:  d.snapshotErrors.Load(),
		Truncations:   d.truncations.Load(),
		Recovered:     d.rec.Load(),
	}
}
