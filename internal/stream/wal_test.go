package stream

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"seagull/internal/lake"
)

// TestDurabilityDrainOverFailingLog: a drain whose final commit the log
// refuses still snapshots every shard, so Close reports the error and a
// restart recovers the live window bit-identical to the uninterrupted run.
func TestDurabilityDrainOverFailingLog(t *testing.T) {
	base, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := lake.NewFaultStore(base)
	g, d := openDurability(t, store, durCfg())
	ref := NewIngestor(snapCfg())
	feed(t, g, 31)
	feed(t, ref, 31)
	store.Arm(lake.FaultRule{Name: walLog, Op: lake.FaultAppend})
	if err := d.Close(); !errors.Is(err, lake.ErrInjected) {
		t.Fatalf("drain over a failing log err = %v, want the injected error", err)
	}
	got, rec := recoverFresh(t, base)
	if rec.Degraded() || rec.SnapshotShards == 0 {
		t.Fatalf("recovery = %+v, want every shard from its snapshot", rec)
	}
	requireSameViews(t, ref, got)
}

// TestDurabilityReplaysOldShardLogs: a lake written with one log per shard
// (shard-NNNN.wal) replays unchanged; the first clean snapshot round, with
// nothing in the live log, deletes the old logs, and a second recovery is
// identical.
func TestDurabilityReplaysOldShardLogs(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewIngestor(snapCfg())
	logs := make([][]byte, len(ref.sh))
	records := 0
	for s := 0; s < 6; s++ {
		id := fmt.Sprintf("srv-old-%d", s)
		i := 0
		for &ref.sh[i] != ref.shardOf(id) {
			i++
		}
		if logs[i] == nil {
			logs[i] = appendWALHeader(nil, &ref.cfg)
		}
		for slot := int64(0); slot < 90; slot++ {
			e := walEntry{id: id, slot: slot + int64(s), val: float64(s*100) + float64(slot)/4}
			logs[i] = appendWALFrame(logs[i], e)
			ref.replayPut(e.id, e.slot, e.val)
			records++
		}
	}
	files := 0
	for i, buf := range logs {
		if buf == nil {
			continue
		}
		w, err := store.ObjectWriter(fmt.Sprintf("%sshard-%04d.wal", WALPrefix, i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		files++
	}

	g, d := openDurability(t, store, durCfg())
	if rec := d.Stats().Recovered; rec.Degraded() || rec.WALFiles != files || rec.WALRecords != records {
		t.Fatalf("recovery = %+v, want %d records from %d old logs", rec, records, files)
	}
	requireSameViews(t, ref, g)
	if _, err := d.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	names, err := store.ListObjects(WALPrefix)
	if err != nil || !slices.Equal(names, []string{walLog}) {
		t.Fatalf("logs after the first clean round = %v (%v), want only %s", names, err, walLog)
	}

	first, rec := recoverFresh(t, store)
	if rec.Degraded() || rec.WALRecords != 0 {
		t.Fatalf("recovery after the round = %+v, want snapshots only", rec)
	}
	requireSameViews(t, ref, first)
	second, _ := recoverFresh(t, store)
	requireSameViews(t, first, second)
}

// TestDurabilityOneWritePerCommit: a commit with every shard dirty is one log
// write, counted once.
func TestDurabilityOneWritePerCommit(t *testing.T) {
	store, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, d := openDurability(t, store, durCfg())
	if len(g.sh) != 16 {
		t.Fatalf("%d stripes, want 16", len(g.sh))
	}
	dirty, points := 0, 0
	for s := 0; dirty < len(g.sh); s++ {
		id := fmt.Sprintf("srv-%d", s)
		if len(g.shardOf(id).pend) == 0 {
			dirty++
		}
		feedN(g, id, 0, 3)
		points += 3
	}
	if err := d.CommitNow(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Commits != 1 || st.CommitRecords != uint64(points) {
		t.Fatalf("stats = %+v, want 1 commit of %d records", st, points)
	}
}
