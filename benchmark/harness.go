package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// callCtx identifies one call to the workload: which closed-loop client makes
// it and how many that client has made before (warm-up included), which
// together select the call's inputs.
type callCtx struct {
	client int
	n      uint64
}

// id is the call identifier the spans of this call share.
func (c callCtx) id() uint64 { return uint64(c.client)<<48 | c.n }

// outcome is what one call did. The workload times the operation itself
// (request out → reply in, or the in-process call) so that building inputs
// and checking outputs stay outside lat.
type outcome struct {
	lat       time.Duration
	ops       int  // successful ops, counted into throughput
	attempted int  // ops attempted
	failed    int  // ops that errored, were shed or rejected, or answered wrongly
	aside     bool // counts toward attempted/failed only, not latency or throughput
	why       string
}

// fail marks the whole call failed.
func fail(attempted int, lat time.Duration, format string, args ...any) outcome {
	return outcome{lat: lat, attempted: attempted, failed: attempted, why: fmt.Sprintf(format, args...)}
}

// workload is one named traffic mix over the real system.
type workload interface {
	// setup builds the system under test from the seed inside dir, starts its
	// listeners and runs the warm-up traffic. rec is nil in an untraced run;
	// with one, the workload installs its span wrappers and probes later.
	setup(seed int64, dir string, rec *recorder) error
	// clients is the number of closed-loop callers.
	clients() int
	// call performs one call. Calls of different clients run concurrently.
	call(c callCtx) outcome
	// finish runs the after-window checks and reports them as one outcome
	// (ops 0; failed > 0 when a check fails).
	finish() outcome
	// counters reads the program's public Stats() counters the workload
	// reports on; the harness reads them before and after the traced window.
	counters() map[string]uint64
	// layers fills in the per-layer metrics this workload exercises from the
	// traced window's spans, the counters' increase over it, and its probes.
	layers(spans []span, counted map[string]uint64, out *layerSet)
	// digest summarises the checked outputs that depend only on the seed.
	digest() uint64
	// close stops everything setup started.
	close()
}

// window is the raw record of one timed window.
type window struct {
	wallNs    int64
	starts    []int64   // per timed call: start, ns since window start
	ends      []int64   // per timed call: completion (checks included), same clock
	lats      []float64 // per timed call: latency in ms, same order
	opsAt     []int     // per timed call: successful ops
	ops       int
	attempted int
	failed    int
	whys      []string // first few failure reasons
	cpuUs     float64
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	goPeak    int
}

// rate is the median of the ten sub-window rates, in ops/s.
func (w *window) rate() float64 { return median(w.subRates()) }

func (w *window) subRates() []float64 {
	return subWindowRates(w.starts, w.ends, w.opsAt, w.wallNs, 10)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runWindow drives the workload's closed-loop clients for d and returns what
// they did. seq carries each client's call counter across windows. No new
// call starts after d; calls in flight are waited for and counted.
func runWindow(w workload, seq []uint64, d time.Duration) *window {
	type rec struct {
		start, end int64
		out        outcome
	}
	perClient := make([][]rec, w.clients())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	stopPeak := make(chan struct{})
	peakDone := make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPeak:
				peakDone <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()

	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs := make([]rec, 0, 4096)
			for at := time.Since(start); at < d; at = time.Since(start) {
				out := w.call(callCtx{client: c, n: seq[c]})
				seq[c]++
				recs = append(recs, rec{start: int64(at), end: int64(time.Since(start)), out: out})
			}
			perClient[c] = recs
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	close(stopPeak)

	win := &window{
		wallNs:    int64(wall),
		cpuUs:     float64(cpu1-cpu0) / 1e3,
		allocB:    ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs:   ms1.Mallocs - ms0.Mallocs,
		gcCycles:  ms1.NumGC - ms0.NumGC,
		gcPauseNs: ms1.PauseTotalNs - ms0.PauseTotalNs,
		goPeak:    <-peakDone,
	}
	for _, recs := range perClient {
		for _, r := range recs {
			win.attempted += r.out.attempted
			win.failed += r.out.failed
			if r.out.failed > 0 && len(win.whys) < 5 {
				win.whys = append(win.whys, r.out.why)
			}
			if r.out.aside {
				continue
			}
			win.ops += r.out.ops
			win.starts = append(win.starts, r.start)
			win.ends = append(win.ends, r.end)
			win.lats = append(win.lats, float64(r.out.lat)/1e6)
			win.opsAt = append(win.opsAt, r.out.ops)
		}
	}
	return win
}

// warmUp makes n calls per client, concurrently like the timed window, and
// returns the first failure.
func warmUp(w workload, seq []uint64, n int) error {
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				out := w.call(callCtx{client: c, n: seq[c]})
				seq[c]++
				if out.failed > 0 && errs[c] == nil {
					errs[c] = fmt.Errorf("warm-up call %d of client %d: %s", i, c, out.why)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Succeeded int                `json:"ops_succeeded"`
	Failed    int                `json:"ops_failed"`
	Calls     int                `json:"timed_calls"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	Host      hostFacts          `json:"host"`
}

// setupRepeats is how many times an untraced run sets the workload up; the
// median is reported as setup_s, and the first one is measured.
const setupRepeats = 3

// runOne runs one workload in this process and returns its report. An
// untraced run sets the workload up `setups` times; a traced run once.
func runOne(spec workloadSpec, seed int64, seconds float64, traced bool, setups int, workRoot, traceOut string) (*report, error) {
	rep := &report{
		Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Host: host(),
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// setUp builds the workload k-th time, warm-up traffic included, and
	// returns how long that took.
	var (
		w   workload
		seq []uint64
	)
	setUp := func(k int) (float64, error) {
		dir := filepath.Join(workRoot, fmt.Sprintf("%s-%d", spec.name, k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		w = spec.build()
		if err := w.setup(seed, dir, rec); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		seq = make([]uint64, w.clients())
		if err := warmUp(w, seq, spec.warmCalls); err != nil {
			return 0, fmt.Errorf("%s: %w", spec.name, err)
		}
		return time.Since(t0).Seconds(), nil
	}
	defer func() { w.close() }()
	first, err := setUp(0)
	if err != nil {
		return nil, err
	}
	setupS := []float64{first}
	runtime.GC() // start every window from a collected heap

	d := time.Duration(seconds * float64(time.Second))
	var win *window
	var counted map[string]uint64 // Stats() increases over the traced window
	if !traced {
		win = runWindow(w, seq, d)
	} else {
		// A traced run first measures an untraced baseline with the wrappers
		// installed but silent, then the traced window; the throughput lost
		// between the two is the tracing overhead.
		base := runWindow(w, seq, d*2/5)
		counted = w.counters()
		rec.on.Store(true)
		win = runWindow(w, seq, d*3/5)
		rec.on.Store(false)
		for k, after := range w.counters() {
			counted[k] = after - counted[k]
		}
		win.attempted += base.attempted
		win.failed += base.failed
		win.whys = append(base.whys, win.whys...)
		rep.Metrics["bench.trace_overhead_pct"] = 100 * (1 - win.rate()/base.rate())
	}
	rssMiB := peakRSSMiB() // before the after-window checks and the repeated set-ups add to it
	fin := w.finish()
	rep.Attempted = win.attempted + fin.attempted
	rep.Failed = win.failed + fin.failed
	rep.Succeeded = rep.Attempted - rep.Failed
	rep.Calls = len(win.lats)
	rep.Failures = win.whys
	if fin.failed > 0 {
		rep.Failures = append(rep.Failures, fin.why)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.Digest = fmt.Sprintf("%016x", w.digest())

	if !traced {
		// setup_s is the median of three set-ups. The two repeats come after
		// the measured window so that the window and peak_rss_mb see a process
		// that has set up once, like the program's own.
		for k := 1; k < setups; k++ {
			w.close()
			runtime.GC()
			s, err := setUp(k)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, s)
		}
		endToEnd(rep.Metrics, win, median(setupS), rssMiB)
		return rep, nil
	}
	spans := rec.closed()
	ls := &layerSet{m: rep.Metrics}
	processLayers(ls, win, rep)
	w.layers(spans, counted, ls)
	rep.Budget = ls.budget
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		if err := writeJSONLines(f, spans); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// endToEnd fills in the end-to-end metrics of an untraced window.
func endToEnd(m map[string]float64, win *window, setupS, rssMiB float64) {
	lats := append([]float64(nil), win.lats...)
	sort.Float64s(lats)
	ops := float64(max(win.ops, 1))
	m["setup_s"] = setupS
	m["throughput_ops_s"] = win.rate()
	m["latency_p50_ms"] = percentile(lats, 50)
	m["cpu_us_per_op"] = win.cpuUs / ops
	m["alloc_bytes_per_op"] = float64(win.allocB) / ops
	m["peak_rss_mb"] = rssMiB
}

// processLayers fills in the per-layer metrics every workload shares: the
// generator's own view of the traced window and the Go runtime's.
func processLayers(ls *layerSet, win *window, rep *report) {
	ops := float64(max(win.ops, 1))
	ls.set("bench.window_cv_pct", cvPct(win.subRates()))
	ls.set("runtime.gc_cycles", float64(win.gcCycles))
	ls.set("runtime.gc_pause_ms", float64(win.gcPauseNs)/1e6)
	ls.set("runtime.allocs_per_op", float64(win.mallocs)/ops)
	ls.set("runtime.goroutines_peak", float64(win.goPeak))
	ls.set("failed_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	lats := append([]float64(nil), win.lats...)
	sort.Float64s(lats)
	ls.set("latency_p95_ms", percentile(lats, 95))
}
