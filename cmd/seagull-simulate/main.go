// Command seagull-simulate runs a time-compressed fleet simulation: a full
// Seagull system — weekly pipeline warmup, live ingest, drift sweeps, model
// refresh, WAL durability and the serving layer over a loopback listener —
// driven by a declarative scenario on a simulated clock, so days of fleet
// operation replay in seconds of wall time.
//
// Usage:
//
//	go run ./cmd/seagull-simulate                          # built-in smoke scenario
//	go run ./cmd/seagull-simulate -scenario burst-drift-36h -out /tmp/sim
//	go run ./cmd/seagull-simulate -scenario scenario.json  # custom JSON scenario
//	go run ./cmd/seagull-simulate -list                    # built-in scenarios
//	go run ./cmd/seagull-simulate -hours 12 -seed 42       # overrides
//	go run ./cmd/seagull-simulate -scale 100               # pace at 100x real time
//
// The run writes timeline.csv (deterministic per scenario+seed: cumulative
// subsystem counters sampled every simulated hour) and slo.json (the SLO
// report: predict latency percentiles, shed/degraded counts, drift detection
// lag, durability counters) into -out, and prints the report summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"seagull/internal/simworkload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seagull-simulate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("scenario", "smoke", "built-in scenario name or path to a scenario JSON file")
		list     = flag.Bool("list", false, "list built-in scenarios and exit")
		out      = flag.String("out", "", "output directory for timeline.csv and slo.json (default: report only)")
		hours    = flag.Float64("hours", 0, "override the scenario's simulated replay hours")
		seed     = flag.Int64("seed", 0, "override the scenario seed")
		scale    = flag.Float64("scale", 0, "pace the replay at this many simulated seconds per wall second (0 = unthrottled)")
		ingestW  = flag.Int("ingest-workers", 4, "ingest fan-out workers")
		predictW = flag.Int("predict-workers", 8, "predict request workers")
		rowEvery = flag.Duration("row-every", time.Hour, "timeline sampling cadence in simulated time")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		replicas = flag.Int("replicas", 0, "override the scenario's serving replicas (consistent-hash shards behind a router; 1 = single process)")
	)
	flag.Parse()

	if *list {
		for _, name := range simworkload.BuiltinNames() {
			sc, _ := simworkload.Builtin(name)
			fmt.Printf("%-18s %d region(s), %g simulated hours, %d events, %d replica(s)\n",
				name, len(sc.Regions), sc.Hours, len(sc.Events), max(sc.Replicas, 1))
		}
		return nil
	}

	sc, ok := simworkload.Builtin(*scenario)
	if !ok {
		var err error
		if sc, err = simworkload.LoadScenario(*scenario); err != nil {
			return fmt.Errorf("scenario %q is not built-in (%s) and did not load as a file: %w",
				*scenario, strings.Join(simworkload.BuiltinNames(), ", "), err)
		}
	}
	if *replicas > 0 {
		sc.Replicas = *replicas
	}

	opts := simworkload.Options{
		Hours:          *hours,
		Seed:           *seed,
		Scale:          *scale,
		IngestWorkers:  *ingestW,
		PredictWorkers: *predictW,
		RowEvery:       *rowEvery,
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	outcome, err := simworkload.Run(ctx, sc, opts)
	if err != nil {
		return err
	}

	if *out != "" {
		if err := writeArtifacts(*out, outcome); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s and %s\n",
			filepath.Join(*out, "timeline.csv"), filepath.Join(*out, "slo.json"))
	}
	fmt.Print(outcome.Report.String())
	return nil
}

// writeArtifacts persists the run's two artifacts: the deterministic
// timeline CSV and the SLO report JSON.
func writeArtifacts(dir string, outcome *simworkload.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "timeline.csv"), outcome.CSV, 0o644); err != nil {
		return err
	}
	rep, err := json.MarshalIndent(outcome.Report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "slo.json"), append(rep, '\n'), 0o644)
}
