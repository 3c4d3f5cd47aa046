package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"time"

	"seagull/internal/timeseries"
)

// Ring snapshot/restore: the durability seam of the stream layer. A process
// restart used to lose every server's live window until telemetry re-fed it;
// Durability serializes the retained rings shard by shard into lake objects
// (periodically, and on drain) and RestoreSnapshot rebuilds them on startup,
// so the forecastable state survives restarts.
//
// Only observable ring state is captured: for each server, the filled slots
// of the live window [max(min, head-Slots), head) plus the head and min
// markers. Buffer placement (the amortized-shift position) is an
// implementation detail and is re-derived on restore, which is why the
// equivalence tests can pin "ingest → snapshot → restore → forecast" as
// bit-identical to the uninterrupted run: views, subsequent appends and
// duplicate/too-old verdicts behave identically either way. Process-lifetime
// ingestion counters (Stats) are deliberately not snapshotted — they describe
// a process, not the data.
//
// The format is a compact little-endian binary stream with a magic header,
// the ring geometry (interval, epoch, slots — restore refuses a geometry
// mismatch rather than aliasing slots), length-prefixed per-server records
// and a trailing CRC-32. Truncation or corruption fails the restore before
// any ring is installed, so a damaged snapshot degrades to a clean cold
// start, never a panic or a half-restored ingestor.

// snapshotMagic identifies snapshot format version 1.
const snapshotMagic = "SGRINGS1"

// ErrSnapshotFormat covers a bad magic, geometry mismatch, truncation, CRC
// failure or any other malformed snapshot content.
var ErrSnapshotFormat = errors.New("stream: bad snapshot")

// snapshotEnd marks the end of the per-server records.
const snapshotEnd = ^uint32(0)

// ShardSnapshotPrefix is the lake prefix incremental per-shard snapshots live
// under; shardSnapshotObject names one shard's file. Each file is a complete,
// self-validating snapshot stream holding just that shard's servers, so a
// damaged shard file degrades only that shard.
const ShardSnapshotPrefix = "stream/rings/"

func shardSnapshotObject(shard int) string {
	return fmt.Sprintf("%sshard-%04d.snap", ShardSnapshotPrefix, shard)
}

// appendShardSnapshot serializes one shard's rings into buf as a complete
// snapshot stream — magic, geometry header, per-server records, end sentinel,
// trailing CRC. The caller holds the shard's lock.
func appendShardSnapshot(buf []byte, cfg *Config, sh *shard) []byte {
	base := len(buf)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Interval))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Epoch.UnixNano()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Slots))
	for id, r := range sh.rings {
		buf = appendRingRecord(buf, id, r, cfg.Slots)
	}
	buf = binary.LittleEndian.AppendUint32(buf, snapshotEnd)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[base:]))
}

// appendRingRecord serializes one server's live window:
//
//	u32 idLen | id | i64 head | i64 min | u32 count | count × (i64 slot, u64 valueBits)
//
// Only filled slots inside [max(min, head-slots), head) are written — slots
// older than the retained window are unobservable and would be evicted by
// the next shift anyway.
func appendRingRecord(buf []byte, id string, r *serverRing, slots int) []byte {
	lo := r.min
	if hs := r.head - int64(slots); lo < hs {
		lo = hs
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.head))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
	countAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	n := uint32(0)
	for slot := lo; slot < r.head; slot++ {
		v := r.vals[slot-r.start]
		if math.IsNaN(v) {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(slot))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		n++
	}
	binary.LittleEndian.PutUint32(buf[countAt:], n)
	return buf
}

// crcReader updates a running CRC-32 with everything read through it.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	return n, err
}

// RestoreSnapshot rebuilds rings from one snapshot stream (a shard file
// written by Durability). The snapshot's ring geometry (interval, epoch,
// slots) must match the ingestor's. Decoding is two-phase: the whole snapshot is parsed and
// CRC-verified first, and only then are rings installed — so a truncated or
// corrupted snapshot returns ErrSnapshotFormat and leaves the ingestor
// exactly as it was (a clean cold start, in the restart flow). Servers that
// already have a live ring keep it; the snapshot's version of that server is
// ignored (live telemetry outranks stale state).
func (g *Ingestor) RestoreSnapshot(r io.Reader) error {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20), crc: crc32.NewIEEE()}

	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return fmt.Errorf("%w: short magic: %v", ErrSnapshotFormat, err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("%w: magic %q", ErrSnapshotFormat, magic)
	}
	var hdr [3]int64
	if err := binary.Read(cr, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrSnapshotFormat, err)
	}
	if time.Duration(hdr[0]) != g.cfg.Interval || hdr[1] != g.cfg.Epoch.UnixNano() || hdr[2] != int64(g.cfg.Slots) {
		return fmt.Errorf("%w: geometry interval=%v epoch=%d slots=%d vs ingestor interval=%v epoch=%d slots=%d",
			ErrSnapshotFormat, time.Duration(hdr[0]), hdr[1], hdr[2],
			g.cfg.Interval, g.cfg.Epoch.UnixNano(), g.cfg.Slots)
	}

	type restored struct {
		id   string
		ring *serverRing
	}
	var rings []restored
	slots := int64(g.cfg.Slots)
	for {
		var idLen uint32
		if err := binary.Read(cr, binary.LittleEndian, &idLen); err != nil {
			return fmt.Errorf("%w: truncated records: %v", ErrSnapshotFormat, err)
		}
		if idLen == snapshotEnd {
			break
		}
		if idLen == 0 || idLen > 4096 {
			return fmt.Errorf("%w: server id length %d", ErrSnapshotFormat, idLen)
		}
		idBytes := make([]byte, idLen)
		if _, err := io.ReadFull(cr, idBytes); err != nil {
			return fmt.Errorf("%w: truncated server id: %v", ErrSnapshotFormat, err)
		}
		var headMin [2]uint64
		if err := binary.Read(cr, binary.LittleEndian, headMin[:]); err != nil {
			return fmt.Errorf("%w: truncated ring markers: %v", ErrSnapshotFormat, err)
		}
		head, min := int64(headMin[0]), int64(headMin[1])
		var count uint32
		if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
			return fmt.Errorf("%w: truncated slot count: %v", ErrSnapshotFormat, err)
		}
		if min > head || head-min > slots || int64(count) > slots {
			return fmt.Errorf("%w: ring markers head=%d min=%d count=%d for %q",
				ErrSnapshotFormat, head, min, count, idBytes)
		}
		// Geometry mirrors newRing for an append at head: start = head-slots
		// leaves the whole window indexable plus a full window of forward
		// room before the first shift.
		ring := &serverRing{vals: make([]float64, 2*g.cfg.Slots), start: head - slots, head: head, min: min}
		for i := range ring.vals {
			ring.vals[i] = timeseries.Missing
		}
		pair := make([]uint64, 2*int(count))
		if err := binary.Read(cr, binary.LittleEndian, pair); err != nil {
			return fmt.Errorf("%w: truncated slots for %q: %v", ErrSnapshotFormat, idBytes, err)
		}
		for i := 0; i < int(count); i++ {
			slot, bits := int64(pair[2*i]), pair[2*i+1]
			if slot < min || slot >= head {
				return fmt.Errorf("%w: slot %d outside [%d, %d) for %q", ErrSnapshotFormat, slot, min, head, idBytes)
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite value for %q slot %d", ErrSnapshotFormat, idBytes, slot)
			}
			ring.vals[slot-ring.start] = v
		}
		rings = append(rings, restored{id: string(idBytes), ring: ring})
	}
	want := cr.crc.Sum32() // records + sentinel were hashed; footer follows un-hashed
	var got uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return fmt.Errorf("%w: missing checksum: %v", ErrSnapshotFormat, err)
	}
	if got != want {
		return fmt.Errorf("%w: checksum %08x, want %08x", ErrSnapshotFormat, got, want)
	}

	// Fully decoded and verified: install. First-ring-wins per server — a
	// server already live in this process is newer than the snapshot.
	for _, rr := range rings {
		sh := g.shardOf(rr.id)
		sh.mu.Lock()
		if _, exists := sh.rings[rr.id]; !exists {
			sh.rings[rr.id] = rr.ring
		}
		sh.mu.Unlock()
	}
	return nil
}
