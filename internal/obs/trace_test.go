package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"seagull/internal/simclock"
)

func TestTraceSpansAndViews(t *testing.T) {
	clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
	tr := NewTracer(TracerConfig{Clock: clock})

	trace := tr.Start("POST /v2/predict", "req-1")
	if trace == nil {
		t.Fatal("Start returned nil on a live tracer")
	}
	if got := trace.RequestID(); got != "req-1" {
		t.Fatalf("RequestID = %q, want req-1", got)
	}
	sp := trace.Begin(StageCheckout)
	clock.Advance(2 * time.Millisecond)
	sp.EndHit(true)
	sp = trace.Begin(StageTrain)
	clock.Advance(5 * time.Millisecond)
	sp.EndHit(false)
	tr.Finish(trace, 200)

	recent := tr.Recent(10)
	if len(recent) != 1 {
		t.Fatalf("Recent = %d traces, want 1", len(recent))
	}
	v := recent[0]
	if v.Op != "POST /v2/predict" || v.RequestID != "req-1" || v.Status != 200 {
		t.Fatalf("unexpected trace view: %+v", v)
	}
	if v.TotalMs != 7 {
		t.Fatalf("TotalMs = %v, want 7", v.TotalMs)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(v.Spans))
	}
	if v.Spans[0].Stage != "checkout" || !v.Spans[0].Hit || v.Spans[0].DurMs != 2 {
		t.Fatalf("span 0 = %+v", v.Spans[0])
	}
	if v.Spans[1].Stage != "train" || v.Spans[1].Hit || v.Spans[1].DurMs != 5 || v.Spans[1].StartMs != 2 {
		t.Fatalf("span 1 = %+v", v.Spans[1])
	}

	stats := tr.StageStats()
	if len(stats) != 2 {
		t.Fatalf("StageStats = %+v, want 2 stages", stats)
	}
	if stats[0].Stage != "checkout" || stats[0].Count != 1 || stats[0].Hits != 1 {
		t.Fatalf("checkout agg = %+v", stats[0])
	}
	if stats[1].Stage != "train" || stats[1].Count != 1 || stats[1].Hits != 0 || stats[1].TotalMs != 5 || stats[1].MaxMs != 5 {
		t.Fatalf("train agg = %+v", stats[1])
	}
}

func TestTracerGeneratesRequestID(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	trace := tr.Start("op", "")
	if id := trace.RequestID(); id == "" {
		t.Fatal("empty generated request id")
	}
	tr.Finish(trace, 0)
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("op", "id") // nil tracer → nil trace
	if trace != nil {
		t.Fatal("nil tracer returned a trace")
	}
	sp := trace.Begin(StageTrain) // nil trace → inert span
	sp.End()
	sp.EndHit(true)
	tr.Finish(trace, 200)
	if got := tr.Recent(5); got != nil {
		t.Fatalf("Recent on nil tracer = %v", got)
	}
	if got := tr.Slowest(); got != nil {
		t.Fatalf("Slowest on nil tracer = %v", got)
	}
	if got := tr.StageStats(); got != nil {
		t.Fatalf("StageStats on nil tracer = %v", got)
	}
	if trace.RequestID() != "" {
		t.Fatal("nil trace has a request id")
	}
}

func TestRingRecyclesWithoutGrowth(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	for i := 0; i < 4*ringSize; i++ {
		trace := tr.Start("op", "x")
		trace.Begin(StageTrain).End()
		tr.Finish(trace, 200)
	}
	if got := len(tr.Recent(4 * ringSize)); got != ringSize {
		t.Fatalf("ring retained %d traces, want %d", got, ringSize)
	}
	if tr.Overruns() != 0 {
		t.Fatalf("overruns = %d, want 0", tr.Overruns())
	}
}

func TestRingOverrunSkipsInsteadOfCorrupting(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	held := make([]*Trace, 0, ringSize)
	for i := 0; i < ringSize; i++ {
		held = append(held, tr.Start("held", "x"))
	}
	// Every slot is owned by an unfinished trace: new starts must be skipped.
	if got := tr.Start("next", "y"); got != nil {
		t.Fatalf("Start reused an active slot: %+v", got)
	}
	if tr.Overruns() != 1 {
		t.Fatalf("overruns = %d, want 1", tr.Overruns())
	}
	// Active slots must be invisible to renderers.
	if got := tr.Recent(ringSize); len(got) != 0 {
		t.Fatalf("Recent exposed %d active traces", len(got))
	}
	for _, h := range held {
		tr.Finish(h, 200)
	}
	if got := len(tr.Recent(ringSize)); got != ringSize {
		t.Fatalf("Recent after finish = %d, want %d", got, ringSize)
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	trace := tr.Start("batch", "x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				trace.Begin(StageTrain).End()
			}
		}()
	}
	wg.Wait()
	tr.Finish(trace, 200)
	v := tr.Recent(1)[0]
	if len(v.Spans) != MaxSpans {
		t.Fatalf("spans = %d, want capped at %d", len(v.Spans), MaxSpans)
	}
	if v.DroppedSpans != 80-MaxSpans {
		t.Fatalf("dropped = %d, want %d", v.DroppedSpans, 80-MaxSpans)
	}
	if st := tr.StageStats(); len(st) != 1 || st[0].Count != 80 {
		t.Fatalf("aggregates should count dropped spans too: %+v", st)
	}
}

func TestSlowestBoard(t *testing.T) {
	clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
	tr := NewTracer(TracerConfig{Clock: clock})
	// Durations 1..3·slowestN ms in a scrambled order; the board keeps the
	// slowestN longest, slowest first.
	n := 3 * slowestN
	for i := 0; i < n; i++ {
		ms := (i*7)%n + 1 // 7 is coprime with n: every duration exactly once
		trace := tr.Start("op", "x")
		clock.Advance(time.Duration(ms) * time.Millisecond)
		tr.Finish(trace, 200)
	}
	slow := tr.Slowest()
	if len(slow) != slowestN {
		t.Fatalf("board holds %d, want %d", len(slow), slowestN)
	}
	for i, v := range slow {
		if want := float64(n - i); v.TotalMs != want {
			t.Fatalf("slowest[%d] = %v ms, want %v", i, v.TotalMs, want)
		}
	}
}

func TestSlowThresholdEmitsSpanTree(t *testing.T) {
	clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(TracerConfig{SlowThreshold: 10 * time.Millisecond, Logger: logger, Clock: clock})

	fast := tr.Start("op", "fast-req")
	clock.Advance(time.Millisecond)
	tr.Finish(fast, 200)
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %s", buf.String())
	}

	slow := tr.Start("op", "slow-req")
	sp := slow.Begin(StageTrain)
	clock.Advance(15 * time.Millisecond)
	sp.End()
	tr.Finish(slow, 200)
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "slow-req") {
		t.Fatalf("slow trace not logged: %q", out)
	}
	if !strings.Contains(out, "train=15.000ms") {
		t.Fatalf("span tree missing from slow log: %q", out)
	}
}

func TestContextCarriers(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx := context.Background()
	if got := TraceFrom(ctx); got != nil {
		t.Fatal("TraceFrom on bare context should be nil")
	}

	trace := tr.Start("op", "x")
	if got := TraceFrom(ContextWithTrace(ctx, trace)); got != trace {
		t.Fatal("direct carrier did not round-trip")
	}

	var ref TraceRef
	rctx := ContextWithTraceRef(ctx, &ref)
	if got := TraceFrom(rctx); got != nil {
		t.Fatal("unset ref should resolve nil")
	}
	ref.Set(trace)
	if got := TraceFrom(rctx); got != trace {
		t.Fatal("ref carrier did not round-trip")
	}
	ref.Set(nil)
	if got := TraceFrom(rctx); got != nil {
		t.Fatal("cleared ref should resolve nil")
	}
	tr.Finish(trace, 0)
}

// TestSimulatedClockDeterminism pins the property seagull-simulate depends
// on: under a simulated clock, identical event sequences produce identical
// span durations and stage aggregates.
func TestSimulatedClockDeterminism(t *testing.T) {
	run := func() []StageStat {
		clock := simclock.NewSimulated(time.Unix(0, 0).UTC())
		tr := NewTracer(TracerConfig{Clock: clock})
		for i := 0; i < 5; i++ {
			trace := tr.Start("op", "x")
			sp := trace.Begin(StageSweep)
			clock.Advance(time.Duration(i) * time.Millisecond)
			sp.End()
			tr.Finish(trace, 0)
		}
		return tr.StageStats()
	}
	a, b := run(), run()
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("nondeterministic stage stats: %+v vs %+v", a, b)
	}
}

func BenchmarkTraceStartFinish(b *testing.B) {
	tr := NewTracer(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace := tr.Start("op", "bench")
		trace.Begin(StageCheckout).EndHit(true)
		trace.Begin(StageTrain).End()
		trace.Begin(StageInference).End()
		tr.Finish(trace, 200)
	}
}
