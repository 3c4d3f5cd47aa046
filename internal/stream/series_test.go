package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"seagull/internal/simclock"
)

// memLog is an ingestor whose write-ahead log is a per-shard list of the
// entries each flush took, in commit order. Its failAt-th flush fails, so
// the refusal path is exercised too.
type memLog struct {
	g       *Ingestor
	mu      sync.Mutex // flushes may race, as appenders' flushes do
	flushes int
	failAt  int // 0: no flush fails
	entries [][]walEntry
}

func newMemLog(cfg Config, buffer, failAt int) *memLog {
	l := &memLog{g: newIngestor(cfg, 4), failAt: failAt}
	l.entries = make([][]walEntry, len(l.g.sh))
	l.g.attachWAL(buffer, make(chan struct{}, 1), l.flush)
	return l
}

func (l *memLog) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushes++; l.flushes == l.failAt {
		return errors.New("injected commit failure")
	}
	for i := range l.g.sh {
		sh := &l.g.sh[i]
		sh.mu.Lock()
		l.entries[i] = append(l.entries[i], sh.pend...)
		sh.pend = sh.pend[:0]
		sh.mu.Unlock()
	}
	return nil
}

// appendLoop is AppendSeries as a loop of Append: the reference the series
// path must match.
func appendLoop(g *Ingestor, serverID string, start time.Time, vals []float64) (AppendSummary, error) {
	var sum AppendSummary
	for i, v := range vals {
		if math.IsNaN(v) {
			sum.Skipped++
			continue
		}
		st := g.Append(serverID, start.Add(time.Duration(i)*g.cfg.Interval), v)
		if st == Refused {
			return sum, ErrRefused
		}
		sum.Add(st)
	}
	return sum, nil
}

// randomSeries draws one series call against a clock reading now: its start
// lies around the rings' heads, before the epoch, across the too-new edge or
// far ahead (a forward jump past the whole ring), and its values mix finite
// points with NaN and ±Inf. A few series are long enough to cross a lock
// chunk.
func randomSeries(rng *rand.Rand, now time.Time, slots int) (time.Time, []float64) {
	const interval = 5 * time.Minute
	head := now.Add(-time.Duration(rng.Intn(4*slots)) * interval)
	var start time.Time
	switch rng.Intn(6) {
	case 0:
		start = testEpoch.Add(-time.Duration(rng.Intn(20)) * interval) // before the epoch
	case 1:
		start = now.Add(maxFuture - time.Duration(rng.Intn(20))*interval) // across the too-new edge
	case 2:
		start = head.Add(time.Duration(2*slots+rng.Intn(slots)) * interval) // a forward jump
	default:
		start = head.Add(time.Duration(rng.Intn(2*slots)-slots) * interval) // around the head
	}
	if rng.Intn(4) == 0 {
		start = start.Add(time.Duration(rng.Int63n(int64(interval)))) // off the slot grid
	}
	n := rng.Intn(40)
	if rng.Intn(50) == 0 {
		n = seriesChunk + rng.Intn(200)
	}
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(20) {
		case 0:
			vals[i] = math.NaN()
		case 1:
			vals[i] = math.Inf(1)
		case 2:
			vals[i] = math.Inf(-1)
		default:
			vals[i] = math.Round(rng.Float64()*10000) / 100
		}
	}
	return start, vals
}

// TestAppendSeriesMatchesAppend holds the series path to a loop of Append
// over random series, with WAL buffers of 1–16 entries so that flushes, and
// on some seeds a refusal, land mid-series: every call gives the same
// summary and error, and afterwards the counters, each shard's WAL entries
// in order and the rings bit for bit are the same.
func TestAppendSeriesMatchesAppend(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	refusals := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := testEpoch.Add(30 * 24 * time.Hour)
		cfg := testConfig(64)
		cfg.Clock = simclock.NewSimulated(now)
		buffer, failAt := 1+rng.Intn(16), 0
		if seed%3 == 0 {
			failAt = 1 + rng.Intn(40)
		}
		got, want := newMemLog(cfg, buffer, failAt), newMemLog(cfg, buffer, failAt)
		var start time.Time
		var vals []float64
		for call := 0; call < 40; call++ {
			id := ids[rng.Intn(len(ids))]
			if call == 0 || rng.Intn(5) != 0 { // else re-send the last series: duplicates
				start, vals = randomSeries(rng, now, cfg.Slots)
			}
			gs, gerr := got.g.AppendSeries(id, start, vals)
			ws, werr := appendLoop(want.g, id, start, vals)
			if gs != ws || gerr != werr {
				t.Fatalf("seed %d call %d: AppendSeries = %+v, %v; Append loop = %+v, %v", seed, call, gs, gerr, ws, werr)
			}
			if gerr != nil {
				refusals++
			}
		}
		if gs, ws := got.g.Stats(), want.g.Stats(); gs != ws {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, gs, ws)
		}
		for i := range got.g.sh {
			gsh, wsh := &got.g.sh[i], &want.g.sh[i]
			gw, ww := append(got.entries[i], gsh.pend...), append(want.entries[i], wsh.pend...)
			if len(gw) != len(ww) {
				t.Fatalf("seed %d shard %d: %d WAL entries, want %d", seed, i, len(gw), len(ww))
			}
			for k := range gw {
				if gw[k] != ww[k] {
					t.Fatalf("seed %d shard %d: WAL entry %d is %+v, want %+v", seed, i, k, gw[k], ww[k])
				}
			}
			if len(gsh.rings) != len(wsh.rings) {
				t.Fatalf("seed %d shard %d: %d rings, want %d", seed, i, len(gsh.rings), len(wsh.rings))
			}
			for id, wr := range wsh.rings {
				gr := gsh.rings[id]
				if gr == nil || gr.start != wr.start || gr.head != wr.head || gr.min != wr.min || len(gr.vals) != len(wr.vals) {
					t.Fatalf("seed %d: ring %s is %+v, want %+v", seed, id, gr, wr)
				}
				for k := range wr.vals {
					if math.Float64bits(gr.vals[k]) != math.Float64bits(wr.vals[k]) {
						t.Fatalf("seed %d: ring %s slot %d is %v, want %v", seed, id, k, gr.vals[k], wr.vals[k])
					}
				}
			}
		}
	}
	if refusals == 0 {
		t.Fatal("no seed refused a point: the refusal path went unchecked")
	}
}

// BenchmarkAppendSeries times the warm series path: an hour of five-minute
// points (12) for one of 64 servers whose rings exist, each call an hour
// past that server's last.
func BenchmarkAppendSeries(b *testing.B) {
	g := NewIngestor(testConfig(4096))
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-srv-%04d", i)
		g.Append(ids[i], testEpoch, 1)
	}
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = 42
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		at := testEpoch.Add(time.Duration(1+i/len(ids)) * time.Hour)
		if sum, err := g.AppendSeries(ids[i%len(ids)], at, vals); err != nil || sum.Appended != len(vals) {
			b.Fatalf("append %d: %+v, %v", i, sum, err)
		}
		i++
	}
}
