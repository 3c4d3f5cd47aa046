package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"seagull/internal/lake"
)

// Crash-recovery matrix: every injected kill point (torn WAL append, failed
// snapshot replace, interrupted replay, corrupted bytes) must recover the
// live window bit-identical to the uninterrupted run up to the durable
// prefix, and no injected corruption may panic or install a partial window.
// "Kill" is simulated by abandoning the Durability without Close — exactly
// what SIGKILL leaves behind — and recovering into a fresh ingestor over the
// same store.

// durCfg disables tickers so tests drive commits and snapshots explicitly.
func durCfg() DurabilityConfig {
	return DurabilityConfig{SnapshotEvery: -1, CommitEvery: time.Hour}
}

// openDurability builds and opens a manager over store for a fresh ingestor.
func openDurability(t *testing.T, store ObjectStore, cfg DurabilityConfig) (*Ingestor, *Durability) {
	t.Helper()
	g := NewIngestor(snapCfg())
	d := NewDurability(g, store, cfg)
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.Open(); err != nil {
		t.Fatal(err)
	}
	return g, d
}

// recoverFresh recovers a fresh ingestor from store, failing the test on a
// transport-level error (per-object failures land in the stats).
func recoverFresh(t *testing.T, store ObjectStore) (*Ingestor, RecoveryStats) {
	t.Helper()
	g := NewIngestor(snapCfg())
	rec, err := NewDurability(g, store, durCfg()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	return g, rec
}

// requireSameViews pins got's live windows bit-identical to want's, for every
// server either side knows.
func requireSameViews(t *testing.T, want, got *Ingestor) {
	t.Helper()
	ws, gs := want.Servers(), got.Servers()
	if len(ws) != len(gs) {
		t.Fatalf("servers: recovered %v, want %v", gs, ws)
	}
	for _, id := range ws {
		a, okA := want.View(id)
		b, okB := got.View(id)
		if okA != okB {
			t.Fatalf("%s: view ok %v, want %v", id, okB, okA)
		}
		if !okA {
			continue
		}
		if !a.Start.Equal(b.Start) || a.Interval != b.Interval || a.Len() != b.Len() {
			t.Fatalf("%s: view shape (%s, %v, %d), want (%s, %v, %d)",
				id, b.Start, b.Interval, b.Len(), a.Start, a.Interval, a.Len())
		}
		for i := range a.Values {
			av, bv := a.Values[i], b.Values[i]
			if math.Float64bits(av) != math.Float64bits(bv) && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("%s: values[%d] = %v, want %v", id, i, bv, av)
			}
		}
	}
}

// feedN appends n deterministic points for id starting at slot base.
func feedN(g *Ingestor, id string, base, n int) {
	cfg := snapCfg()
	for i := 0; i < n; i++ {
		ts := cfg.Epoch.Add(time.Duration(base+i) * cfg.Interval)
		g.Append(id, ts, 10+math.Sin(float64(base+i)/13))
	}
}

// TestDurabilityWALRecovery: a hard kill after a group commit loses nothing
// that was committed — WAL-only recovery (no snapshot ever written) is
// bit-identical to the uninterrupted run.
func TestDurabilityWALRecovery(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feed(t, g, 42)
	feed(t, ref, 42)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no snapshot.
	got, rec := recoverFresh(t, store)
	if rec.Degraded() {
		t.Fatalf("unexpected degraded recovery: %v", rec.Failures)
	}
	if rec.WALRecords == 0 || rec.SnapshotShards != 0 {
		t.Fatalf("recovery = %+v, want WAL-only records", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilitySnapshotPlusWAL: snapshot, more traffic, commit, kill — the
// recovered window composes the snapshot with the replayed tail and matches
// the uninterrupted run. Also pins incremental skip (an idle shard set costs
// zero snapshot writes) and WAL truncation after a successful snapshot.
func TestDurabilitySnapshotPlusWAL(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feed(t, g, 7)
	feed(t, ref, 7)

	wrote, err := d.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if wrote == 0 {
		t.Fatal("first snapshot wrote no shards")
	}
	// Unchanged shards cost nothing on the next cycle.
	if wrote, err = d.SnapshotNow(); err != nil || wrote != 0 {
		t.Fatalf("idle snapshot wrote %d shards (err %v), want 0", wrote, err)
	}
	st := d.Stats()
	if st.Truncations == 0 {
		t.Fatalf("stats = %+v, want WAL truncations after snapshot", st)
	}

	feedN(g, "srv-a", 700, 150)
	feedN(ref, "srv-a", 700, 150)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	got, rec := recoverFresh(t, store)
	if rec.Degraded() {
		t.Fatalf("unexpected degraded recovery: %v", rec.Failures)
	}
	if rec.SnapshotShards == 0 || rec.WALRecords != 150 {
		t.Fatalf("recovery = %+v, want snapshots plus the 150-record WAL tail", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityTornTail: a kill mid-append leaves a partial frame at the
// WAL tail; replay keeps every complete frame before it and never panics.
func TestDurabilityTornTail(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feedN(g, "srv-torn", 0, 300)
	feedN(ref, "srv-torn", 0, 300)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	// Tear the log's tail the way a mid-write kill would: a few raw bytes of
	// a frame that never finished.
	f, err := os.OpenFile(store.ObjectPath(walLog), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, rec := recoverFresh(t, store)
	if rec.Degraded() {
		t.Fatalf("torn tails must not degrade: %v", rec.Failures)
	}
	if rec.TornTails != 1 || rec.WALRecords != 300 {
		t.Fatalf("recovery = %+v, want 1 torn tail and all 300 committed records", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityKillDuringWALAppend: an injected mid-frame write failure
// (ENOSPC at a scripted offset) rolls the log back to a frame boundary and
// keeps the batch buffered. A kill at that moment recovers exactly the last
// committed prefix; clearing the fault and retrying commits the batch with
// zero loss.
func TestDurabilityKillDuringWALAppend(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := lake.NewFaultStore(base)
	g, d := openDurability(t, store, durCfg())
	prefix := NewIngestor(snapCfg())
	full := NewIngestor(snapCfg())

	feedN(g, "srv-enospc", 0, 200)
	feedN(prefix, "srv-enospc", 0, 200)
	feedN(full, "srv-enospc", 0, 200)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}

	// Arm ENOSPC a little into the next batch, on the log.
	enospc := errors.New("no space left on device")
	store.Arm(lake.FaultRule{Name: walLog, Op: lake.FaultAppend, Offset: 37, Err: enospc})

	feedN(g, "srv-enospc", 200, 100)
	feedN(full, "srv-enospc", 200, 100)
	if err := d.CommitNow(); !errors.Is(err, enospc) {
		t.Fatalf("commit under ENOSPC err = %v, want the injected error", err)
	}
	if d.Stats().CommitErrors == 0 {
		t.Fatal("commit error not counted")
	}

	// Kill here: recovery sees exactly the pre-fault committed prefix — the
	// rolled-back partial frame must not poison it.
	got, rec := recoverFresh(t, base)
	if rec.Degraded() {
		t.Fatalf("rolled-back torn write must not degrade: %v", rec.Failures)
	}
	if rec.WALRecords != 200 {
		t.Fatalf("recovered %d records, want the 200-record prefix", rec.WALRecords)
	}
	requireSameViews(t, prefix, got)

	// The disk clears; the still-buffered batch commits on the next cycle
	// with zero loss.
	store.Disarm(walLog, lake.FaultAppend)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	got, rec = recoverFresh(t, base)
	if rec.Degraded() || rec.WALRecords != 300 {
		t.Fatalf("post-retry recovery = %+v, want all 300 records", rec)
	}
	requireSameViews(t, full, got)
}

// TestDurabilityKillDuringSnapshotReplace: a failure mid-replace aborts the
// staged write, so the previous snapshot stays live — and because pending
// points are flushed to the WAL before the replace, a kill at that moment
// still recovers everything.
func TestDurabilityKillDuringSnapshotReplace(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := lake.NewFaultStore(base)
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feed(t, g, 99)
	feed(t, ref, 99)
	if _, err := d.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	feedN(g, "srv-a", 700, 120)
	feedN(ref, "srv-a", 700, 120)
	shardIdx := -1
	for i := range g.sh {
		if _, ok := g.sh[i].rings["srv-a"]; ok {
			shardIdx = i
		}
	}
	store.Arm(lake.FaultRule{Name: shardSnapshotObject(shardIdx), Op: lake.FaultWrite, Offset: 100})
	if _, err := d.SnapshotNow(); !errors.Is(err, lake.ErrInjected) {
		t.Fatalf("snapshot under fault err = %v, want injected", err)
	}
	if d.Stats().SnapshotErrs == 0 {
		t.Fatal("snapshot error not counted")
	}

	// Kill mid-replace: old snapshot + WAL reconstruct the full state. Sweep
	// first, as boot does — the aborted stage leaves no usable temp either
	// way.
	if _, err := base.SweepTempObjects(); err != nil {
		t.Fatal(err)
	}
	got, rec := recoverFresh(t, base)
	if rec.Degraded() {
		t.Fatalf("aborted replace must not degrade: %v", rec.Failures)
	}
	if rec.WALRecords != 120 {
		t.Fatalf("recovered %d WAL records, want the 120 flushed before the replace", rec.WALRecords)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityKillDuringReplay: an I/O error mid-replay recovers what it
// can, reports the file as failed (degraded), installs no partial record —
// and a clean retry over the same store recovers everything, because replay
// never mutates the log.
func TestDurabilityKillDuringReplay(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, base, durCfg())
	ref := NewIngestor(snapCfg())
	feedN(g, "srv-replay", 0, 400)
	feedN(ref, "srv-replay", 0, 400)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}

	ioErr := errors.New("read timeout")
	faulty := lake.NewFaultStore(base)
	faulty.Arm(lake.FaultRule{Name: walLog, Op: lake.FaultRead, Offset: int64(walHeaderLen) + 500, Err: ioErr})

	killed := NewIngestor(snapCfg())
	rec, err := NewDurability(killed, faulty, durCfg()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded() {
		t.Fatalf("interrupted replay not reported: %+v", rec)
	}
	// A prefix may have been applied, but only whole records: every slot the
	// killed ingestor holds must match the reference bit-for-bit.
	if live, ok := killed.View("srv-replay"); ok {
		want, _ := ref.View("srv-replay")
		for i, v := range live.Values {
			j := int(live.Start.Sub(want.Start)/live.Interval) + i
			if !math.IsNaN(v) && math.Float64bits(v) != math.Float64bits(want.Values[j]) {
				t.Fatalf("partial replay installed a corrupt value at %d", i)
			}
		}
	}

	// Retry after the fault clears (a restart re-reads the intact log).
	got, rec := recoverFresh(t, base)
	if rec.Degraded() || rec.WALRecords != 400 {
		t.Fatalf("retry recovery = %+v, want all 400 records", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityCorruptSnapshot: flipped bits in a snapshot (or its short
// read) fail its CRC, recovery skips it, reports degraded, and never panics
// or installs a partial window — the WAL tail still replays.
func TestDurabilityCorruptSnapshot(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, base, durCfg())
	feed(t, g, 5)
	if _, err := d.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	feedN(g, "srv-tail", 100, 50)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}

	snaps, err := base.ListObjects(ShardSnapshotPrefix)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no shard snapshots on disk (%v)", err)
	}
	faulty := lake.NewFaultStore(base)
	for _, name := range snaps {
		faulty.Arm(lake.FaultRule{Name: name, Op: lake.FaultRead, Offset: 64, Corrupt: true})
	}
	got := NewIngestor(snapCfg())
	rec, err := NewDurability(got, faulty, durCfg()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded() || rec.SnapshotShards != 0 {
		t.Fatalf("corrupt snapshots: recovery = %+v, want all skipped and degraded", rec)
	}
	// The WAL tail written after the snapshot still recovers.
	if rec.WALRecords != 50 {
		t.Fatalf("recovered %d WAL records, want the 50-record tail", rec.WALRecords)
	}
	if _, ok := got.View("srv-tail"); !ok {
		t.Fatal("WAL tail not replayed after snapshot corruption")
	}
}

// TestDurabilityCleanClose: Close flushes and snapshots everything, so a
// drain loses nothing and leaves only header-sized WALs behind.
func TestDurabilityCleanClose(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feed(t, g, 1234)
	feed(t, ref, 1234)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(store.ObjectPath(walLog))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(walHeaderLen) {
		t.Fatalf("WAL is %d bytes after drain, want bare header (%d)", fi.Size(), walHeaderLen)
	}
	got, rec := recoverFresh(t, store)
	if rec.Degraded() || rec.WALRecords != 0 {
		t.Fatalf("post-drain recovery = %+v, want snapshots only", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityTickers: Start's maintenance loop commits and snapshots on
// its own — points survive a kill with no explicit CommitNow.
func TestDurabilityTickers(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := NewIngestor(snapCfg())
	d := NewDurability(g, store, DurabilityConfig{CommitEvery: 2 * time.Millisecond, SnapshotEvery: 5 * time.Millisecond})
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := d.Start(ctx); err != nil {
		t.Fatal(err)
	}
	feedN(g, "srv-tick", 0, 250)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.Stats()
		if st.CommitRecords >= 250 && st.Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintenance loop never persisted: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	// Kill without Close.
	got, rec := recoverFresh(t, store)
	if rec.Degraded() {
		t.Fatalf("degraded: %v", rec.Failures)
	}
	requireSameViews(t, g, got)
}

// TestDurabilityGeometryMismatch: a WAL from a different ring geometry is
// refused (degraded), never aliased onto the wrong slot grid.
func TestDurabilityGeometryMismatch(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	feedN(g, "srv-geo", 0, 10)
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	other := snapCfg()
	other.Slots = 288
	got := NewIngestor(other)
	rec, err := NewDurability(got, store, durCfg()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded() {
		t.Fatalf("geometry mismatch not reported: %+v", rec)
	}
	if len(got.Servers()) != 0 {
		t.Fatal("mismatched WAL was replayed anyway")
	}
}

// TestWALAppendNoAllocs: the warm append path stays allocation-free with the
// WAL armed — buffering is a copy into preallocated capacity.
func TestWALAppendNoAllocs(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, DurabilityConfig{SnapshotEvery: -1, CommitEvery: time.Hour, BufferEntries: 1 << 20})
	defer d.Close()
	cfg := snapCfg()
	feedN(g, "srv-alloc", 0, 1) // ring + buffer exist
	i := 1
	avg := testing.AllocsPerRun(500, func() {
		g.Append("srv-alloc", cfg.Epoch.Add(time.Duration(i)*cfg.Interval), 12.5)
		i++
	})
	if avg != 0 {
		t.Fatalf("warm append with WAL = %v allocs/op, want 0", avg)
	}
}

// stallStore holds the first staged object write (a snapshot replace) until
// release is closed, announcing the stall on stalled. The snapshot holds the
// committer for the whole write, so a stall here is a stalled committer.
type stallStore struct {
	*lake.FaultStore
	stalled, release chan struct{}
	once             sync.Once
}

func (s *stallStore) ObjectWriter(name string) (io.WriteCloser, error) {
	s.once.Do(func() {
		close(s.stalled)
		<-s.release
	})
	return s.FaultStore.ObjectWriter(name)
}

// TestDurabilityFullBufferKeepsAckedPoints: while a snapshot write stalls the
// committer, appenders push more than a full default-size buffer into one
// shard. A full buffer is flushed by the appender itself once the snapshot
// finishes — back-pressure, never loss — so after a commit and a hard kill
// every point answered Appended is recovered.
func TestDurabilityFullBufferKeepsAckedPoints(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &stallStore{FaultStore: lake.NewFaultStore(base), stalled: make(chan struct{}), release: make(chan struct{})}
	cfg := Config{Interval: 5 * time.Minute, Epoch: snapCfg().Epoch, Slots: 4096}
	g := newIngestor(cfg, 1)
	d := NewDurability(g, store, durCfg())
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.Open(); err != nil {
		t.Fatal(err)
	}
	at := func(i int) time.Time { return cfg.Epoch.Add(time.Duration(i) * cfg.Interval) }
	g.Append("seed", at(0), 1) // moves the shard's generation, so the snapshot writes

	snapDone := make(chan error, 1)
	go func() {
		_, err := d.SnapshotNow()
		snapDone <- err
	}()
	<-store.stalled

	const appenders, perServer = 3, 2000 // 6000 points > the 4096-entry buffer
	acked := make([][]bool, appenders)
	var wg sync.WaitGroup
	for a := range acked {
		acked[a] = make([]bool, perServer)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perServer {
				acked[a][i] = g.Append(fmt.Sprintf("srv-%d", a), at(i), float64(a*perServer+i)) == Appended
			}
		}()
	}
	sh := &g.sh[0]
	for full := false; !full; {
		sh.mu.RLock()
		full = len(sh.pend) >= cap(sh.pend)
		sh.mu.RUnlock()
		time.Sleep(time.Millisecond)
	}
	close(store.release)
	wg.Wait()
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	// Hard kill: no Close. Recover into a fresh ingestor.
	got := NewIngestor(cfg)
	if _, err := NewDurability(got, base, durCfg()).Recover(); err != nil {
		t.Fatal(err)
	}
	n, lost := 0, 0
	for a := range acked {
		id := fmt.Sprintf("srv-%d", a)
		view, _ := got.View(id)
		for i, ok := range acked[a] {
			if !ok {
				continue
			}
			n++
			idx := int(at(i).Sub(view.Start) / cfg.Interval)
			if idx < 0 || idx >= view.Len() || view.Values[idx] != float64(a*perServer+i) {
				lost++
			}
		}
	}
	if n != appenders*perServer || lost != 0 {
		t.Fatalf("%d of %d acknowledged points lost; %d of %d points acknowledged", lost, n, n, appenders*perServer)
	}
	if st := d.Stats(); st.Dropped != 0 {
		t.Fatalf("stats = %+v, want no refused points", st)
	}
}
