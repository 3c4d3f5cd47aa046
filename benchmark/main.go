// Command benchmark is the repository's benchmark: five named workloads over
// the real system, six bounded end-to-end metrics from an untraced run and
// an attributed per-layer budget from a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

var workloads = []workloadSpec{
	{
		name:      "predict_wire",
		why:       "routed /v2/predict with a microsecond model and a re-shipped 7-day history: JSON, two HTTP hops and the router's decode/re-encode own the time; model and stream changes must show nothing",
		warmCalls: 300,
		build:     func() workload { return &predictWire{} },
	},
	{
		name:      "predict_batch_train",
		why:       "routed 16-server /v2/predict/batch with SSA and never-repeating histories: training, the warm pool and the batch fan-out own the CPU; wire-only changes move it least of the HTTP workloads",
		warmCalls: 6,
		build:     func() workload { return &predictBatch{} },
	},
	{
		name:      "ingest_wire",
		why:       "routed /v2/ingest with WAL and snapshots on, duplicates, out-of-order points and live predicts beside the writes, then a hard-kill recovery: the write path a predict-side gain must not tax",
		warmCalls: ingestWarmCalls,
		build:     func() workload { return &ingestWire{} },
	},
	{
		name:      "drift_refresh",
		why:       "in-process append, SweepOnce, Drain, CommitNow over 200 stored predictions, 5 % drifted: cosmos query/decode, ring views, bucket-ratio scoring and doc upsert, which the HTTP workloads barely touch",
		warmCalls: driftWarmCalls,
		build:     func() workload { return &driftRefresh{} },
	},
	{
		name:      "batch_week",
		why:       "RunWeek plus ScheduleBackups cycling over 4 regions x 2 weeks of lake extracts: CSV ingestion, validate, classify, cosmos persistence and the scheduler, where a serving change must show nothing",
		warmCalls: weekWarmCalls,
		build:     func() workload { return &batchWeek{} },
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	ok, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run does what the flags ask and reports whether every op of every run was
// correct (and, under -selfcheck, whether the two sets agreed).
func run(args []string) (ok bool, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names     = fs.String("workload", "", "comma-separated workload names (default: all)")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", runSeconds, "length of the timed window")
		trace     = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and budget table")
		traceOut  = fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
		out       = fs.String("out", "", "write the reports here as JSON")
		selfcheck = fs.Bool("selfcheck", false, "run two untraced sets back to back and fail if an end-to-end metric differs by more than its bound")
		workDir   = fs.String("work", ".bench_build/work", "scratch directory for lakes and WALs (created, then removed)")
		describe  = fs.Bool("describe", false, "print BENCHMARK.json as the catalogue defines it, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *describe {
		fmt.Print(benchmarkJSON())
		return true, nil
	}
	var specs []workloadSpec
	if *names == "" {
		specs = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		s, found := specByName(n)
		if !found {
			return false, fmt.Errorf("unknown workload %q", n)
		}
		specs = append(specs, s)
	}
	traced := *trace == 1

	var reps any
	switch {
	case *selfcheck:
		var sets [2][]*report
		for i := range sets {
			if sets[i], err = runChildren(specs, *seed, *seconds, false, *workDir, ""); err != nil {
				return false, err
			}
		}
		ok, reps = agree(sets, *seed), sets
	case len(specs) == 1:
		rep, err := runInProcess(specs[0], *seed, *seconds, traced, *workDir, *traceOut)
		if err != nil {
			return false, err
		}
		fmt.Println(resultLine(rep)) // the last line of standard output: the driver reads it
		ok, reps = rep.Correct, []*report{rep}
	default:
		children, err := runChildren(specs, *seed, *seconds, traced, *workDir, *traceOut)
		if err != nil {
			return false, err
		}
		ok, reps = true, children
		for _, r := range children {
			ok = ok && r.Correct
		}
	}
	if *out != "" {
		if err := writeJSON(*out, reps); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runInProcess runs one workload here and prints its report.
func runInProcess(spec workloadSpec, seed int64, seconds float64, traced bool, workDir, traceOut string) (*report, error) {
	root, err := mkWork(workDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep, err := runOne(spec, seed, seconds, traced, setupRepeats, root, traceOut)
	if err != nil {
		return nil, err
	}
	printReport(os.Stdout, rep)
	return rep, nil
}

// mkWork creates a fresh directory under the scratch root.
func mkWork(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

// runChildren runs each workload in a fresh child process, so that peak RSS
// and allocation counts are the workload's own, and collects the reports.
func runChildren(specs []workloadSpec, seed int64, seconds float64, traced bool, workDir, traceOut string) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := mkWork(workDir, "reports-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var reps []*report
	for _, s := range specs {
		outFile := filepath.Join(tmp, s.name+".json")
		args := []string{
			"-workload", s.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-out", outFile, "-work", workDir,
		}
		if traced {
			args = append(args, "-trace", "1")
		}
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut+"."+s.name)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(outFile)
		if err != nil {
			return nil, fmt.Errorf("workload %s produced no report: %v", s.name, runErr)
		}
		var one []*report
		if err := json.Unmarshal(data, &one); err != nil || len(one) != 1 {
			return nil, fmt.Errorf("workload %s: bad report: %v", s.name, err)
		}
		reps = append(reps, one[0])
	}
	return reps, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
