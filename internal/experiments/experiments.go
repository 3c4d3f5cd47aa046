// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3, 5, 6 and Appendix A) on the synthetic substrate.
// Each experiment is a named, parameterized run that produces tables
// comparable to the paper's figures; cmd/seagull-experiments renders and
// times them.
//
// Concurrency: experiments share bounded parallel.Pool workers with
// per-worker model arenas (one scratch-retaining model set per worker, no
// locking on the hot path); fleets are memoized in a bounded LRU guarded by
// a mutex. Equivalence: every experiment is deterministic per (config,
// seed) regardless of worker count — partitioned runs must reproduce the
// single-threaded tables exactly, which the smoke tests rely on.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
)

// Scale selects the experiment size.
type Scale int

const (
	// ScaleSmall runs quickly (tests and benchmarks).
	ScaleSmall Scale = iota
	// ScaleFull approaches the paper's relative workload sizes.
	ScaleFull
)

// Options parameterize an experiment run.
type Options struct {
	Scale   Scale
	Seed    int64
	Workers int // 0 means NumCPU
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// pick returns small for ScaleSmall and full otherwise.
func pick[T any](o Options, small, full T) T {
	if o.Scale == ScaleFull {
		return full
	}
	return small
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // index key, e.g. "fig3"
	Title string // paper artifact, e.g. "Figure 3: server classification"
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	Run   func(Options) ([]Table, error)
}

// canonicalOrder is the paper's presentation order: evaluation figures
// first, then the appendix, then this repo's ablations.
var canonicalOrder = []string{
	"fig3", "fig11a", "fig11bcd", "fig12a", "fig12b", "fig13a", "fig13b",
	"sec53", "a1", "fig16", "fig17",
	"ablation-bound", "ablation-threshold", "ablation-history",
	"ablation-pf-variants", "ablation-workers",
}

var registryMap = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registryMap[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	registryMap[e.ID] = e
}

// All returns every experiment in the paper's presentation order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registryMap))
	for _, id := range canonicalOrder {
		if e, ok := registryMap[id]; ok {
			out = append(out, e)
		}
	}
	// Any experiment registered outside the canonical list goes last.
	for id, e := range registryMap {
		found := false
		for _, c := range canonicalOrder {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			out = append(out, e)
		}
	}
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registryMap[id]
	return e, ok
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registryMap))
	for id := range registryMap {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
