// Command seagull-bench is the repo's perf-trajectory helper: it runs
// go vet, the test suite, and a short benchmark pass, then writes a
// machine-readable summary (ns/op, B/op, allocs/op per benchmark) so a PR can
// be compared against the committed baseline, BENCH.json, without re-deriving
// numbers.
//
// Usage:
//
//	go run ./cmd/seagull-bench                 # vet + test + short benchmarks
//	go run ./cmd/seagull-bench -out BENCH.json    # re-record the baseline
//	go run ./cmd/seagull-bench -bench 'BenchmarkARIMATrain' -benchtime 10x
//	go run ./cmd/seagull-bench -skip-checks    # benchmarks only
//	go run ./cmd/seagull-bench -out /tmp/now.json -compare BENCH.json
//
// -compare diffs the fresh run against a prior snapshot, printing ±% deltas
// per benchmark, and exits non-zero when any shared benchmark regresses its
// allocs/op by more than -max-alloc-regress percent (default 10) — the CI
// gate for the perf trajectory. Time and bytes deltas are informational
// (wall clock is too machine-dependent to gate on; allocation counts are
// deterministic).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultBench covers the hot-path micro-benchmarks, the headline figure
// benchmark the acceptance numbers track and one weekly pipeline run.
// SSA appears in both its exact and randomized-SVD variants; fleet
// generation in lazy and materialize-all forms.
const defaultBench = "BenchmarkARIMATrain|BenchmarkSolveRidge|BenchmarkPoolForEach|" +
	"BenchmarkSSATrainInfer|BenchmarkSSATrainInferRandomized|" +
	"BenchmarkFFNNTrainInfer|" +
	"BenchmarkPersistentForecastTrainInfer|BenchmarkFleetGeneration|" +
	"BenchmarkFleetMaterialize|" +
	"BenchmarkFig11aTrainInfer|BenchmarkPipelineWeek|" +
	"BenchmarkServePredict|BenchmarkServeBatch|" +
	"BenchmarkTracedPredict|BenchmarkMetricsRender|" +
	"BenchmarkStreamIngest|BenchmarkStreamDriftSweep|BenchmarkStreamRefresh|" +
	"BenchmarkStreamShardSnapshot|BenchmarkStreamSweeper|" +
	"BenchmarkStreamWALAppend|BenchmarkStreamWALReplay|" +
	"BenchmarkAdmissionAccept|BenchmarkAdmissionShed|" +
	"BenchmarkRouterPredict|BenchmarkRouterFleetVarz|BenchmarkSimulateScenario"

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra carries custom b.ReportMetric units (e.g. points/s from
	// BenchmarkStreamIngest), informational.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type summary struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"num_cpu"`
	Benchtime string        `json:"benchtime"`
	Pattern   string        `json:"pattern"`
	VetOK     bool          `json:"vet_ok"`
	TestsOK   bool          `json:"tests_ok"`
	Results   []benchResult `json:"results"`
}

func run(name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// parseBench reads go test benchmark output lines, e.g.
//
//	BenchmarkARIMATrain  	     186	  13733155 ns/op	  269404 B/op	     110 allocs/op
//	BenchmarkStreamIngest	 2000000	      62.19 ns/op	  16080650 points/s	       0 B/op	       0 allocs/op
//
// Value/unit pairs are scanned positionally so custom b.ReportMetric units
// (points/s above) do not hide the B/op and allocs/op columns from the
// regression gate; they land in Extra instead.
func parseBench(out string) []benchResult {
	var results []benchResult
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		r := benchResult{Name: name}
		r.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				r.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					if r.Extra == nil {
						r.Extra = map[string]float64{}
					}
					r.Extra[unit] = v
				}
			}
		}
		results = append(results, r)
	}
	return results
}

// loadSummary reads a prior snapshot for -compare.
func loadSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// pctDelta renders (new-old)/old as a signed percentage, guarding zero.
func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "0.0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// compare prints per-benchmark deltas against old and returns the names of
// benchmarks that fail the gate: allocs/op regressed beyond
// maxAllocRegressPct, or present in the baseline but absent from the fresh
// run (a renamed/deleted/crashed benchmark must not silently lose its
// regression protection — regenerate the baseline to retire one).
func compare(old *summary, fresh []benchResult, maxAllocRegressPct float64) []string {
	byName := make(map[string]benchResult, len(old.Results))
	for _, r := range old.Results {
		byName[r.Name] = r
	}
	fmt.Printf("\ncomparison vs snapshot of %s:\n", old.Generated)
	fmt.Printf("%-40s %12s %12s %12s\n", "benchmark", "ns/op Δ", "B/op Δ", "allocs/op Δ")
	var failures []string
	for _, r := range fresh {
		o, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-40s %12s %12s %12s\n", r.Name, "(new)", "(new)", "(new)")
			continue
		}
		delete(byName, r.Name)
		fmt.Printf("%-40s %12s %12s %12s\n", r.Name,
			pctDelta(o.NsPerOp, r.NsPerOp),
			pctDelta(float64(o.BytesPerOp), float64(r.BytesPerOp)),
			pctDelta(float64(o.AllocsPerOp), float64(r.AllocsPerOp)))
		switch {
		case o.AllocsPerOp == 0 && r.AllocsPerOp > 0:
			// A zero-alloc guarantee broke; no percentage threshold applies.
			failures = append(failures, r.Name+" (0 allocs/op baseline broken)")
		case o.AllocsPerOp > 0 &&
			float64(r.AllocsPerOp) > float64(o.AllocsPerOp)*(1+maxAllocRegressPct/100):
			failures = append(failures, r.Name)
		}
	}
	for name := range byName {
		fmt.Printf("%-40s %12s %12s %12s\n", name, "(gone)", "(gone)", "(gone)")
		failures = append(failures, name+" (missing from this run)")
	}
	return failures
}

func main() {
	out := flag.String("out", "bench-now.json", "output JSON path")
	bench := flag.String("bench", defaultBench, "benchmark pattern passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to go test -benchtime")
	skipChecks := flag.Bool("skip-checks", false, "skip go vet and go test, run benchmarks only")
	comparePath := flag.String("compare", "", "prior summary (BENCH.json) to diff against; "+
		"exits non-zero on allocs/op regression beyond -max-alloc-regress")
	maxAllocRegress := flag.Float64("max-alloc-regress", 10,
		"allowed allocs/op regression in percent before -compare fails the run")
	flag.Parse()

	s := summary{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Benchtime: *benchtime,
		Pattern:   *bench,
	}

	failed := false
	if *skipChecks {
		s.VetOK, s.TestsOK = true, true
	} else {
		fmt.Println("→ go vet ./...")
		if o, err := run("go", "vet", "./..."); err != nil {
			fmt.Fprint(os.Stderr, o)
			fmt.Fprintln(os.Stderr, "go vet failed:", err)
			failed = true
		} else {
			s.VetOK = true
		}
		// -shuffle=on randomizes test (and subtest-parent) execution order so
		// inter-test state dependence cannot hide; the seed is printed on
		// failure for replay with -shuffle=<seed>.
		fmt.Println("→ go test -shuffle=on ./...")
		if o, err := run("go", "test", "-shuffle=on", "./..."); err != nil {
			fmt.Fprint(os.Stderr, o)
			fmt.Fprintln(os.Stderr, "go test failed:", err)
			failed = true
		} else {
			s.TestsOK = true
		}
	}

	fmt.Printf("→ go test -run ^$ -bench %q -benchmem -benchtime %s .\n", *bench, *benchtime)
	benchOut, err := run("go", "test", "-run", "^$",
		"-bench", *bench, "-benchmem", "-benchtime", *benchtime, ".")
	fmt.Print(benchOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks failed:", err)
		failed = true
	}
	s.Results = parseBench(benchOut)

	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(s.Results))

	if *comparePath != "" {
		old, err := loadSummary(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		// Every benchmark in the default pattern pins its worker count
		// (benchOpts Workers=1, BenchmarkPoolForEach at 4), so allocs/op is
		// machine-independent and the gate applies regardless of where the
		// baseline was captured.
		if bad := compare(old, s.Results, *maxAllocRegress); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "alloc gate failed (>%.0f%% allocs/op, broken zero-alloc, or missing) vs %s: %s\n",
				*maxAllocRegress, *comparePath, strings.Join(bad, ", "))
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
