package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// resultLine is the last line of standard output: exactly correct,
// attempted, failed and metrics, each metric with its value and unit.
func resultLine(rep *report) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	cat := endToEndMetrics
	if rep.Traced {
		cat = perLayerMetrics
	}
	ms := make(map[string]mv, len(cat))
	for _, m := range cat {
		ms[m.name] = mv{Value: rep.Metrics[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, ms})
	must(err)
	return string(line)
}

// printReport writes the self-describing form: every metric by name with its
// unit, direction and bound, the op counts, the digest and the host facts.
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %.3gs %s  digest %s\n", rep.Workload, rep.Seed, rep.Seconds, mode, rep.Digest)
	fmt.Fprintf(w, "  host: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit)
	fmt.Fprintf(w, "  ops_attempted=%d ops_succeeded=%d ops_failed=%d timed_calls=%d correct=%v\n",
		rep.Attempted, rep.Succeeded, rep.Failed, rep.Calls, rep.Correct)
	for _, why := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", why)
	}
	if !rep.Traced {
		for _, m := range endToEndMetrics {
			fmt.Fprintf(w, "  %-22s %14.4f %-6s (%s is better, bound %g%%)\n",
				m.name, rep.Metrics[m.name], m.unit, m.better, 100*m.bound)
		}
		return
	}
	fmt.Fprintf(w, "  budget (per timed call):\n")
	fmt.Fprintf(w, "    %-44s %12s %8s %9s  %s\n", "layer", "us/call", "% call", "allocs", "source")
	for _, r := range rep.Budget {
		fmt.Fprintf(w, "    %-44s %12.2f %7.1f%% %9.1f  %s\n",
			strings.Repeat("  ", r.Depth)+r.Layer, r.Us, r.Pct, r.Allocs, r.Source)
	}
	for _, m := range perLayerMetrics {
		fmt.Fprintf(w, "  %-36s %16.4f %-6s (%s is better)\n", m.name, rep.Metrics[m.name], m.unit, m.better)
	}
}

// agree prints the two untraced sets of -selfcheck side by side and reports
// whether they agree: no failed op, and no end-to-end metric of any workload
// further apart than its bound, in either direction.
func agree(sets [2][]*report, seed int64) bool {
	ok := true
	fmt.Printf("\nself-agreement, seed %d:\n  %-22s %-22s %14s %14s %8s %7s\n", seed, "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Correct || !b.Correct {
			fmt.Printf("  %-22s FAILED ops: set 1 %d, set 2 %d\n", a.Workload, a.Failed, b.Failed)
			ok = false
		}
		for _, m := range endToEndMetrics {
			x, y := a.Metrics[m.name], b.Metrics[m.name]
			diff := math.Abs(y-x) / math.Max(math.Abs(x), 1e-12)
			verdict := ""
			if diff > m.bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("  %-22s %-22s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", a.Workload, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok
}

// runSeconds is the window BENCHMARK.json tells the driver to use; the
// -seconds default is the same.
const runSeconds = 16

// benchmarkJSON renders BENCHMARK.json from the catalogue, so the file at the
// repository root is a product of this package and a test can hold the two
// together.
func benchmarkJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, s := range workloads {
		doc.Workloads = append(doc.Workloads, wl{s.name, s.why})
	}
	for _, m := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	must(err)
	return string(data) + "\n"
}
