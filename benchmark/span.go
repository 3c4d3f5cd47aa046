package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one call share
// Call; Parent is the ID of the span that caused this one (0 for a root).
// Start and End are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Call   uint64 `json:"call"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the benchmark
// ends. While off (the untraced baseline window of a traced run, and every
// untraced run) begin returns 0 after one atomic load.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID (0 when recording is off or r is nil).
func (r *recorder) begin(name string, call uint64, parent int32) int32 {
	if r == nil || !r.on.Load() {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, Call: call, ID: id, Parent: parent, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned; end(0) is a no-op.
func (r *recorder) end(id int32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// closed returns the spans that were both begun and ended.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONLines writes one span per line.
func writeJSONLines(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent and
// overlapping children (a fan-out) are counted once.
func selfTimes(spans []span) map[int32]int64 {
	byID := make(map[int32]span, len(spans))
	kids := map[int32][][2]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], [2]int64{lo, hi})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return self
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := int64(0), iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// spanStats is the per-name aggregate of a span set.
type spanStats struct {
	n    int
	durs []float64 // µs
	self float64   // µs, summed
}

func (s *spanStats) meanUs() float64 { return mean(s.durs) }

func (s *spanStats) selfUs() float64 {
	if s.n == 0 {
		return 0
	}
	return s.self / float64(s.n)
}

func (s *spanStats) p99Us() float64 {
	d := append([]float64(nil), s.durs...)
	sort.Float64s(d)
	return percentile(d, 99)
}

// byName aggregates spans per name. When root is not empty only the spans of
// calls whose root span has that name are kept — the ingest workload's
// interleaved predicts stay out of the ingest budget that way.
func byName(spans []span, root string) map[string]*spanStats {
	self := selfTimes(spans)
	keep := map[uint64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && (root == "" || s.Name == root) {
			keep[s.Call] = true
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		if !keep[s.Call] {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.durs = append(st.durs, float64(s.dur())/1e3)
		st.self += float64(self[s.ID]) / 1e3
	}
	return out
}

// get returns the named aggregate or an empty one.
func get(m map[string]*spanStats, name string) *spanStats {
	if st := m[name]; st != nil {
		return st
	}
	return &spanStats{}
}
