package stream

// Fuzz targets for the two binary decoders that read attacker-ignorant but
// crash-shaped bytes: lake objects survive partial writes, process kills and
// bit rot, so the decoders' contract is "never panic, never install partial
// state, fail with an ErrSnapshotFormat/ErrWALFormat-class error". The seed
// corpora in testdata/fuzz cover the valid encodings plus the classic
// mutations (truncation, flipped CRC, scrambled lengths); CI runs each target
// for a short fixed budget.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// fuzzGeometry is the fixed ring geometry every fuzz ingestor shares — the
// decoders reject any other geometry, which is itself a path worth fuzzing.
func fuzzIngestor() *Ingestor {
	return newIngestor(Config{
		Interval: 5 * time.Minute,
		Epoch:    time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC),
		Slots:    64,
	}, 1) // one shard stream then holds every ring
}

// fuzzSnapshotBytes builds a small valid shard snapshot of two live rings.
func fuzzSnapshotBytes() []byte {
	g := fuzzIngestor()
	for slot := int64(0); slot < 8; slot++ {
		g.replayPut("srv-a", slot, float64(slot))
		g.replayPut("srv-b", slot*2, 1.5)
	}
	return shardSnapshots(g)[0]
}

// fuzzWALBytes builds a small valid shard log of three frames.
func fuzzWALBytes() []byte {
	g := fuzzIngestor()
	buf := appendWALHeader(nil, &g.cfg)
	buf = appendWALFrame(buf, walEntry{id: "srv-a", slot: 1, val: 3.25})
	buf = appendWALFrame(buf, walEntry{id: "srv-a", slot: 2, val: 4.5})
	buf = appendWALFrame(buf, walEntry{id: "srv-b", slot: 7, val: 0})
	return buf
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpora under
// testdata/fuzz when SEAGULL_REGEN_CORPUS=1 — run it after changing either
// binary format so the corpora track the real encodings.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SEAGULL_REGEN_CORPUS") == "" {
		t.Skip("set SEAGULL_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	valid := fuzzSnapshotBytes()
	snapFlip := append([]byte(nil), valid...)
	snapFlip[len(snapFlip)-1] ^= 0xff
	writeCorpus(t, "FuzzRestoreSnapshot", map[string][]byte{
		"valid":       valid,
		"truncated":   valid[:len(valid)/2],
		"crc-flipped": snapFlip,
		"header-only": valid[:len(snapshotMagic)+3*8],
		"wrong-geometry": func() []byte {
			g := newIngestor(Config{Interval: time.Minute, Epoch: time.Unix(0, 0), Slots: 8}, 1)
			g.replayPut("srv-a", 1, 1)
			return shardSnapshots(g)[0]
		}(),
	})
	wal := fuzzWALBytes()
	walFlip := append([]byte(nil), wal...)
	walFlip[len(walFlip)-1] ^= 0xff
	writeCorpus(t, "FuzzReplayWAL", map[string][]byte{
		"valid":       wal,
		"header-only": wal[:walHeaderLen],
		"torn-tail":   wal[:len(wal)-5],
		"crc-flipped": walFlip,
	})
}

// writeCorpus emits native go-fuzz corpus files ("go test fuzz v1").
func writeCorpus(t *testing.T, target string, seeds map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzRestoreSnapshot(f *testing.F) {
	valid := fuzzSnapshotBytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])              // truncated checksum
	f.Add(valid[:len(snapshotMagic)+3*8+2])  // truncated mid-record
	f.Add([]byte{})                          // empty object
	f.Add([]byte("SGRINGS2withwrongmagic.")) // wrong magic
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // CRC mismatch
	f.Add(flipped)
	scrambled := append([]byte(nil), valid...)
	scrambled[len(snapshotMagic)+3*8] = 0xee // scrambled id length
	f.Add(scrambled)

	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzIngestor()
		err := g.RestoreSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("error escaped the ErrSnapshotFormat class: %v", err)
			}
			// A rejected snapshot must leave the ingestor a clean cold start.
			if n := len(g.Servers()); n != 0 {
				t.Fatalf("failed restore installed %d rings", n)
			}
			return
		}
		// An accepted snapshot must hold invariant state: re-serializing the
		// restored rings must produce a snapshot that restores cleanly too.
		for _, snap := range shardSnapshots(g) {
			if err := fuzzIngestor().RestoreSnapshot(bytes.NewReader(snap)); err != nil {
				t.Fatalf("round-trip of accepted restore: %v", err)
			}
		}
	})
}

func FuzzReplayWAL(f *testing.F) {
	valid := fuzzWALBytes()
	f.Add(valid)
	f.Add(valid[:walHeaderLen])    // header only: clean empty log
	f.Add(valid[:walHeaderLen+6])  // torn first frame
	f.Add(valid[:len(valid)-3])    // torn last frame
	f.Add([]byte{})                // empty object
	f.Add([]byte("SGWALOG2.....")) // wrong magic
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // CRC mismatch on the tail frame
	f.Add(flipped)
	scrambled := append([]byte(nil), valid...)
	scrambled[walHeaderLen] = 0xff // scrambled frame length
	f.Add(scrambled)

	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzIngestor()
		rep, err := g.replayWAL(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrWALFormat) {
				t.Fatalf("error escaped the ErrWALFormat class: %v", err)
			}
			return
		}
		// Whatever replay applied must be observable, finite ring state.
		for _, id := range g.Servers() {
			snap, ok := g.SnapshotInto(id, nil)
			if !ok {
				t.Fatalf("server %q listed but has no window", id)
			}
			for i, v := range snap.Values {
				if math.IsInf(v, 0) {
					t.Fatalf("server %q point %d is infinite", id, i)
				}
			}
		}
		if rep.records < 0 || rep.duplicates < 0 {
			t.Fatalf("negative replay tallies: %+v", rep)
		}
	})
}
