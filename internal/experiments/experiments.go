// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3, 5, 6 and Appendix A) on the synthetic substrate.
// Each experiment is a named, parameterized run that returns its
// comparisons with the paper as Claim values — the paper's figure, ours and
// the band ours must fall in — together with the tables those claims do not
// state; cmd/seagull-experiments renders them, and
// TestAllExperimentsRun checks every claim at small scale.
//
// Concurrency: experiments share bounded parallel.Pool workers with
// per-worker model arenas (one scratch-retaining model set per worker, no
// locking on the hot path). Equivalence: every experiment is deterministic
// per (config, seed) regardless of worker count — partitioned runs must
// reproduce the single-threaded claims and tables exactly, which
// TestClaimsIndependentOfWorkers checks.
package experiments

import "runtime"

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
	Run   func(Options) (Result, error)
}

// All is every experiment in the paper's presentation order: evaluation
// figures first, then the appendix, then this repo's ablations.
var All = []Experiment{
	{ID: "fig3", Title: "Figure 3: classification of servers",
		Paper: "42.1% short-lived, 53.5% stable, 0.2% daily/weekly pattern, " +
			"4.2% without pattern; 58% long-lived; 53.7% expected predictable",
		Run: runFig3},
	{ID: "fig11bcd", Title: "Figure 11(b,c,d): LL windows, window accuracy and predictable servers per model and region",
		Paper: "accuracy of PF, NimbusML and GluonTS comparable; NimbusML chooses " +
			"the highest share of LL windows; Prophet similar or lower",
		Run: runFig11bcd},
	{ID: "fig12a", Title: "Figure 12(a): input and work of the use-case-agnostic components per region size",
		Paper: "model deployment ≈ constant (~1min); other components grow linearly " +
			"with input size; accuracy evaluation dominates beyond 1GB",
		Run: runFig12a},
	{ID: "fig13a", Title: "Figure 13(a): backup scheduling impact",
		Paper: "daily-pattern servers: 12.5% of backups moved into correct LL windows, " +
			"85.3% of defaults already were LL windows, 2.1% incorrect; stable servers: " +
			"99.5% of defaults already LL; busy servers: 7.7% of collisions avoided",
		Run: runFig13a},
	{ID: "fig13b", Title: "Figure 13(b): servers per maximal CPU utilization",
		Paper: "only 3.7% of servers reach CPU capacity within a week; for 96.3% " +
			"resources could be saved by overbooking or auto-scale",
		Run: runFig13b},
	{ID: "sec53", Title: "Sections 5.3.2/5.4: persistent forecast headline accuracy",
		Paper: "stable+pattern servers: 99.83% LL windows correct, 99.06% accurate, " +
			"96.92% predictable; deployed fleet-wide: 99% / 96% / 75% of long-lived servers",
		Run: runSec53},
	{ID: "a1", Title: "Appendix A.1: classification of SQL databases",
		Paper: "19.36% of several thousand sampled SQL databases are stable (Definition 10)",
		Run:   runA1},
	{ID: "fig16", Title: "Figures 16 and 17: model accuracy (NRMSE / MASE) for SQL databases, and persistent forecast's training",
		Paper: "persistent forecast competitive with the neural network; ARIMA works " +
			"better on coarse 15-minute SQL data than on 5-minute server data; ARIMA's " +
			"training runtime is not comparable with the other models; persistent " +
			"forecast needs no training",
		Run: runFig1617},
	{ID: "ablation-bound", Title: "Ablation: asymmetric +10/−5 error bound vs alternatives (Definition 1)",
		Paper: "the paper tolerates +10 over-prediction but only −5 under-prediction " +
			"because under-estimating load risks scheduling backups into busy periods",
		Run: runAblationBound},
	{ID: "ablation-threshold", Title: "Ablation: bucket-ratio accuracy threshold sweep (Definition 2)",
		Paper: "the production threshold is 90%",
		Run:   runAblationThreshold},
	{ID: "ablation-history", Title: "Ablation: predictability gate length (Definition 9)",
		Paper: "three weeks balances prediction confidence against applicability " +
			"(58% of servers survive beyond three weeks)",
		Run: runAblationHistory},
	{ID: "ablation-pf-variants", Title: "Ablation: persistent forecast variants per server class (Section 5.2)",
		Paper: "previous day covers the largest population (53.7%): it captures both " +
			"stable load and daily patterns; previous equivalent day captures weekly patterns",
		Run: runAblationPFVariants},
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
