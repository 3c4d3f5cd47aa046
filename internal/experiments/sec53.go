package experiments

import (
	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
)

func init() {
	register(Experiment{
		ID:    "sec53",
		Title: "Sections 5.3.2/5.4: persistent forecast headline accuracy",
		Paper: "stable+pattern servers: 99.83% LL windows correct, 99.06% accurate, " +
			"96.92% predictable; deployed fleet-wide: 99% / 96% / 75% of long-lived servers",
		Run: runSec53,
	})
}

// runSec53 evaluates the deployed heuristic — persistent forecast based on
// the previous day — on (1) the stable-and-pattern sub-population of
// Section 5.3.2 and (2) the full long-lived fleet of Section 5.4.
func runSec53(o Options) ([]Table, error) {
	o = o.withDefaults()
	nPattern := pick(o, 250, 2000)
	nFleet := pick(o, 300, 2500)
	weeks := []int{1, 2, 3}
	mcfg := metrics.DefaultConfig()
	factory := modelFactory(forecast.NamePersistentPrevDay, o.Seed, false)
	pool := parallel.NewPool(o.Workers)

	// (1) Servers whose load is stable or follows a pattern (Section 5.3.2).
	patternFleet := cachedFleet(simulate.Config{
		Region: "sec53-pattern", Servers: nPattern, Weeks: 4, Seed: o.Seed,
		Mix: simulate.Mix{Stable: 0.93, Daily: 0.04, Weekly: 0.03},
	})
	evals, err := evaluateFleet(patternFleet, factory, weeks, mcfg, pool)
	if err != nil {
		return nil, err
	}
	pat := aggregate(evals, mcfg)

	// (2) The whole long-lived fleet (Section 5.4's deployment numbers).
	fleet := cachedFleet(simulate.Config{
		Region: "sec53-fleet", Servers: nFleet, Weeks: 4, Seed: o.Seed + 3,
	})
	evals, err = evaluateFleet(fleet, factory, weeks, mcfg, pool)
	if err != nil {
		return nil, err
	}
	all := aggregate(evals, mcfg)

	t := Table{
		Caption: "Sections 5.3.2 / 5.4 — persistent forecast (previous day) accuracy",
		Note:    "three weekly backup-day evaluations per long-lived server",
		Header:  []string{"population", "metric", "paper", "measured"},
	}
	t.AddRow("stable + pattern", "LL windows chosen correctly", "99.83%", pct2Str(pat.pctCorrect()))
	t.AddRow("stable + pattern", "LL window load predicted accurately", "99.06%", pct2Str(pat.pctAccurate()))
	t.AddRow("stable + pattern", "servers predictable", "96.92%", pct2Str(pat.pctPredictable()))
	t.AddRow("all long-lived", "LL windows chosen correctly", "99%", pctStr(all.pctCorrect()))
	t.AddRow("all long-lived", "LL window load predicted accurately", "96%", pctStr(all.pctAccurate()))
	t.AddRow("all long-lived", "servers predictable", "75%", pctStr(all.pctPredictable()))
	return []Table{t}, nil
}
