package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Write-ahead log: the first half of the bounded-loss guarantee. Accepted
// points buffer in their shard, and the group committer frames every shard's
// buffer into one CRC-framed write on one log and fsyncs once — so after a
// hard kill, everything older than the last commit (at most the commit
// interval δ ago) is on disk. Every frame carries its server id, so replay
// re-derives the shard. Replay happens on boot after snapshot restore; ring
// puts are first-write-wins, so records a snapshot already covers land as
// duplicates and the WAL/snapshot overlap never needs to be exact. A snapshot
// round whose commit and replaces all succeed truncates the log back to its
// header, keeping it small.
//
// Layout (little-endian throughout):
//
//	magic "SGWALOG1" | u64 interval | u64 epochUnixNano | u64 slots   (header)
//	repeated frames: u32 payloadLen | payload | u32 crc32(payload)
//	payload: u32 idLen | id | u64 slot | u64 valueBits
//
// A crash mid-append leaves at most one torn frame at the tail; replay stops
// at the first frame that is short or fails its CRC and keeps everything
// before it. Corruption never panics and never installs a partial record.

// WALPrefix is the lake prefix the log lives under. walLog names the log;
// older lakes may also hold one log per shard (shard-NNNN.wal) here, which
// Recover replays and the first clean snapshot round deletes.
const (
	WALPrefix = "stream/wal/"
	walLog    = WALPrefix + "log.wal"
)

// walMagic identifies WAL format version 1.
const walMagic = "SGWALOG1"

// walHeaderLen is the byte length of the header: magic plus ring geometry.
const walHeaderLen = len(walMagic) + 3*8

// walMaxIDLen bounds server ids in frames, mirroring the snapshot format's
// bound; a larger length in a frame means corruption.
const walMaxIDLen = 4096

// ErrWALFormat reports a WAL whose header is missing, malformed or from a
// different ring geometry. (Torn or corrupt frames are not errors — they are
// the expected crash artifact, reported per file in RecoveryStats.)
var ErrWALFormat = errors.New("stream: bad WAL")

// appendWALHeader serializes the log header for the given ring geometry.
func appendWALHeader(buf []byte, cfg *Config) []byte {
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Interval))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.Epoch.UnixNano()))
	return binary.LittleEndian.AppendUint64(buf, uint64(cfg.Slots))
}

// appendWALFrame serializes one record frame.
func appendWALFrame(buf []byte, e walEntry) []byte {
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // payload length, patched below
	payloadAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.id)))
	buf = append(buf, e.id...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.slot))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.val))
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-payloadAt))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[payloadAt:]))
}

// walReplay reports what one log's replay recovered.
type walReplay struct {
	records    int  // frames applied to the rings
	duplicates int  // frames already covered by a snapshot (expected overlap)
	torn       bool // stopped at a short or CRC-failing tail frame
}

// replayWAL reads one log and applies its records to the ingestor.
// Geometry mismatch or a missing header returns ErrWALFormat (the caller
// treats the file as unusable); a torn tail is normal crash residue — replay
// keeps everything before it and reports torn. A read error from the
// underlying store aborts with that error; records already applied stay
// applied, which is safe because replay is idempotent.
func (g *Ingestor) replayWAL(r io.Reader) (walReplay, error) {
	var rep walReplay
	br := bufio.NewReaderSize(r, 1<<16)

	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return rep, fmt.Errorf("%w: short header: %v", ErrWALFormat, err)
	}
	if string(hdr[:len(walMagic)]) != walMagic {
		return rep, fmt.Errorf("%w: magic %q", ErrWALFormat, hdr[:len(walMagic)])
	}
	geo := hdr[len(walMagic):]
	interval := time.Duration(binary.LittleEndian.Uint64(geo[0:8]))
	epoch := int64(binary.LittleEndian.Uint64(geo[8:16]))
	slots := int64(binary.LittleEndian.Uint64(geo[16:24]))
	if interval != g.cfg.Interval || epoch != g.cfg.Epoch.UnixNano() || slots != int64(g.cfg.Slots) {
		return rep, fmt.Errorf("%w: geometry interval=%v epoch=%d slots=%d vs ingestor interval=%v epoch=%d slots=%d",
			ErrWALFormat, interval, epoch, slots, g.cfg.Interval, g.cfg.Epoch.UnixNano(), g.cfg.Slots)
	}

	var lenBuf [4]byte // outside the loop: it escapes into io.ReadFull
	var frame []byte
	var id string
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if err == io.EOF {
				return rep, nil // clean end of log
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				rep.torn = true
				return rep, nil
			}
			return rep, err
		}
		payloadLen := binary.LittleEndian.Uint32(lenBuf[:])
		// 4 (idLen) + id + 8 (slot) + 8 (value); anything outside is a torn
		// or scrambled length, and nothing after it can be framed again.
		if payloadLen < 20 || payloadLen > walMaxIDLen+20 {
			rep.torn = true
			return rep, nil
		}
		need := int(payloadLen) + 4 // payload + trailing CRC
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				rep.torn = true
				return rep, nil
			}
			return rep, err
		}
		payload := frame[:payloadLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[payloadLen:]) {
			rep.torn = true
			return rep, nil
		}
		idLen := binary.LittleEndian.Uint32(payload[0:4])
		if int(idLen) != len(payload)-20 || idLen == 0 {
			rep.torn = true
			return rep, nil
		}
		if idBytes := payload[4 : 4+idLen]; string(idBytes) != id {
			id = string(idBytes) // commits frame each shard in append order, so ids repeat
		}
		slot := int64(binary.LittleEndian.Uint64(payload[4+idLen : 12+idLen]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(payload[12+idLen : 20+idLen]))
		switch g.replayPut(id, slot, val) {
		case Appended:
			rep.records++
		case Duplicate:
			rep.duplicates++
		}
	}
}
