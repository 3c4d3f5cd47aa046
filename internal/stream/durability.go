package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
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
//     append that finds its shard's buffer full commits the log inline
//     first (back-pressure, not loss) and refuses the point only if the
//     commit fails.
//   - Maintenance goroutine (one per Durability): every CommitEvery (δ) it
//     frames every shard's buffer into the one log with one write and one
//     fsync. Every SnapshotEvery it runs a snapshot round: commit, rewrite
//     the shard snapshots whose generation counter moved, then truncate the
//     log once, which the snapshots now cover.
//   - Recover (boot): restores every per-shard snapshot, then replays every
//     log; first-write-wins ring puts make the overlap idempotent. A file
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
	// append that finds its shard's buffer full commits the log itself
	// before it is acknowledged, so a larger buffer trades memory for fewer
	// inline commits, never for loss. Default 4096.
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

// Durability owns the WAL + incremental-snapshot lifecycle for one Ingestor
// over one store. Construct with NewDurability, then Recover (boot), Open or
// Start, and Close on drain.
type Durability struct {
	ing   *Ingestor
	store ObjectStore
	cfg   DurabilityConfig

	// opMu serializes maintenance operations (commit, snapshot, open,
	// close): they share the scratch buffers below and the log handle. The
	// append hot path never takes it.
	opMu   sync.Mutex
	opened bool
	closed bool
	log    lake.AppendObject
	// logSize is the log's last known-good durable length, so a failed
	// commit rolls back to a clean frame boundary (torn frames then only
	// ever come from real crashes, at the tail).
	logSize int64
	legacy  []string // per-shard logs of the old layout that Recover listed
	lastGen []uint64
	framed  []int  // per-shard entry counts of the commit in flight
	scratch []byte // frame/snapshot serialization buffer

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
		framed:  make([]int, len(ing.sh)),
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
	// WALFiles counts logs replayed (the log, plus any per-shard logs an
	// older lake left); WALRecords the points they re-applied;
	// WALDuplicates the points a snapshot already covered.
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
// first, then every log replayed over it. Files are processed concurrently.
// A file that fails to restore is recorded in Failures and skipped —
// everything else is still salvaged, no partial object is ever installed,
// and the error surface is the returned stats, not an abort. Call once, on
// boot, before Open/Start.
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
	for _, name := range logs {
		if name != d.objName(walLog) {
			d.legacy = append(d.legacy, name)
		}
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
	// records are truncated or deleted only then).
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

// Open arms the ingestor's WAL buffers and opens the log, writing a fresh
// header if it is absent or undersized. An existing log is trusted (Recover
// already consumed and validated it — and even if stale bytes survived,
// replay's CRC framing contains them). Idempotent.
func (d *Durability) Open() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	if d.opened {
		return nil
	}
	log, err := d.store.ObjectAppender(d.objName(walLog))
	if err != nil {
		return fmt.Errorf("stream: open WAL: %w", err)
	}
	size, err := log.Size()
	if err == nil && size < int64(walHeaderLen) {
		size = int64(walHeaderLen)
		if err = log.Truncate(0); err == nil {
			_, err = log.Write(appendWALHeader(nil, &d.ing.cfg))
		}
		if err == nil {
			err = log.Sync()
		}
	}
	if err != nil {
		log.Close()
		return fmt.Errorf("stream: open WAL: %w", err)
	}
	d.log, d.logSize = log, size
	d.ing.attachWAL(d.cfg.BufferEntries, d.kick, d.flushFull)
	d.opened = true
	return nil
}

// Start opens the manager and launches the maintenance goroutine: WAL group
// commits every CommitEvery (sooner when a shard buffer passes half full),
// incremental snapshots every SnapshotEvery. It stops when ctx is canceled;
// Close then runs the final snapshot round.
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

// CommitNow group-commits every shard's pending points to the log with one
// write and one sync. On error the entries stay buffered for the next cycle;
// the error is returned (tests assert on it, serve logs it).
func (d *Durability) CommitNow() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	if !d.opened || d.closed {
		return nil
	}
	return d.commitLocked()
}

// errClosed refuses an inline commit after Close has released the log.
var errClosed = errors.New("stream: durability closed")

// flushFull is the append path's commit for a full shard buffer: it takes
// opMu — so it waits for a running commit or snapshot round to finish — and
// commits the log. An error makes the appender refuse its point, so failures
// here count the refused points.
func (d *Durability) flushFull() error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	err := errClosed
	if !d.closed {
		err = d.commitLocked()
	}
	if err != nil {
		d.refused.Add(1)
	}
	return err
}

// commitLocked frames every shard's pending entries into one buffer, writes
// it to the log and syncs. Entries leave their shard buffers only after the
// sync. On failure the log is rolled back to its last known-good size, so a
// store hiccup never leaves a mid-file torn frame that would poison every
// record after it, and every entry stays buffered. Caller holds opMu.
func (d *Durability) commitLocked() error {
	buf, records := d.scratch[:0], 0
	for i := range d.ing.sh {
		buf, d.framed[i] = d.ing.framePending(i, buf)
		records += d.framed[i]
	}
	d.scratch = buf
	if records == 0 {
		return nil
	}
	_, err := d.log.Write(buf)
	if err == nil {
		err = d.log.Sync()
	}
	if err != nil {
		d.commitErrors.Add(1)
		// Trim any partial frame; if even the rollback fails, replay's CRC
		// framing still contains the damage.
		_ = d.log.Truncate(d.logSize)
		return err
	}
	d.logSize += int64(len(buf))
	for i, n := range d.framed {
		if n > 0 {
			d.ing.dropCommitted(i, n)
		}
	}
	d.commits.Add(1)
	d.commitRecords.Add(uint64(records))
	d.commitBytes.Add(uint64(len(buf)))
	return nil
}

// SnapshotNow runs one snapshot round. It commits, then re-serializes and
// atomically replaces every shard whose generation counter moved since its
// last snapshot; unchanged shards cost nothing. Returns how many shards were
// written, and the first error.
//
// Only when the commit and every replace succeeded does the round truncate
// the log to its header and delete the old layout's per-shard logs. That is
// safe against a kill at any line: the commit puts every buffered point in
// the log before any capture, each capture covers every logged point of its
// shard, and a shard whose generation has not moved has logged nothing since
// its last capture. Points arriving after a capture stay buffered (no one
// else writes the log under opMu), so truncation never discards a point no
// snapshot covers.
func (d *Durability) SnapshotNow() (int, error) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.snapshotLocked()
}

func (d *Durability) snapshotLocked() (int, error) {
	if !d.opened || d.closed {
		return 0, nil
	}
	first := d.commitLocked()
	clean := first == nil
	wrote := 0
	for i := range d.ing.sh {
		ok, err := d.snapshotShard(i)
		if ok {
			wrote++
		}
		if err != nil {
			clean = false
			if first == nil {
				first = err
			}
		}
	}
	if !clean {
		return wrote, first
	}
	// A failed truncation is harmless to leave: replay of covered records is
	// idempotent.
	if d.logSize > int64(walHeaderLen) && d.log.Truncate(int64(walHeaderLen)) == nil {
		d.logSize = int64(walHeaderLen)
		d.truncations.Add(1)
	}
	d.legacy = slices.DeleteFunc(d.legacy, func(name string) bool { return d.store.RemoveObject(name) == nil })
	return wrote, nil
}

// snapshotShard captures one shard whose generation moved and atomically
// replaces its snapshot object. Caller holds opMu.
func (d *Durability) snapshotShard(i int) (bool, error) {
	sh := &d.ing.sh[i]
	sh.mu.RLock()
	gen := sh.gen
	if gen == d.lastGen[i] {
		sh.mu.RUnlock()
		return false, nil
	}
	d.scratch = appendShardSnapshot(d.scratch[:0], &d.ing.cfg, sh)
	sh.mu.RUnlock()

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
		// The replace failed atomically: the previous snapshot and the log
		// (which the round does not truncate) still reconstruct the shard.
		d.snapshotErrors.Add(1)
		return false, fmt.Errorf("stream: snapshot shard %d: %w", i, err)
	}
	d.snapshots.Add(1)
	d.lastGen[i] = gen
	return true, nil
}

// Close stops the maintenance goroutine, runs a final snapshot round (so a
// clean drain loses nothing at all, even when the log refuses the final
// commit) and closes the log. The manager cannot be reused after Close.
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
	_, first := d.snapshotLocked()
	if err := d.log.Close(); err != nil && first == nil {
		first = err
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
