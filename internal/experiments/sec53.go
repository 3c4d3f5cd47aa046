package experiments

import (
	"fmt"

	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
)

// runSec53 evaluates the deployed heuristic — persistent forecast based on
// the previous day — on (1) the stable-and-pattern sub-population of
// Section 5.3.2 and (2) the full long-lived fleet of Section 5.4.
func runSec53(o Options) (Result, error) {
	o = o.withDefaults()
	nPattern := pick(o, 250, 2000)
	nFleet := pick(o, 300, 2500)
	weeks := []int{1, 2, 3}
	mcfg := metrics.DefaultConfig()
	factory := modelFactory(forecast.NamePersistentPrevDay, o)
	pool := parallel.NewPool(o.Workers)

	// (1) Servers whose load is stable or follows a pattern (Section 5.3.2).
	patternFleet := simulate.GenerateFleet(simulate.Config{
		Region: "sec53-pattern", Servers: nPattern, Weeks: 4, Seed: o.Seed,
		Mix: simulate.Mix{Stable: 0.93, Daily: 0.04, Weekly: 0.03},
	})
	evals, err := evaluateFleet(patternFleet, factory, weeks, mcfg, pool)
	if err != nil {
		return Result{}, err
	}
	pat := aggregate(evals, mcfg)

	// (2) The whole long-lived fleet (Section 5.4's deployment numbers).
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "sec53-fleet", Servers: nFleet, Weeks: 4, Seed: o.Seed + 3,
	})
	evals, err = evaluateFleet(fleet, factory, weeks, mcfg, pool)
	if err != nil {
		return Result{}, err
	}
	all := aggregate(evals, mcfg)

	// Window shares count server-days and predictable shares count
	// servers; the fleets are generated to the populations the paper
	// measured, so sampling bounds the gap. The deployed fleet's 75%
	// predictable servers is not claimed (DESIGN.md): the substrate's
	// long-lived servers hold their pattern across weeks, so ours is 91–94%.
	return Result{
		Claims: []Claim{
			share("stable + pattern: LL windows chosen correctly", 99.83, pat.pctCorrect(), pat.Days),
			share("stable + pattern: LL window load predicted accurately", 99.06, pat.pctAccurate(), pat.Days),
			share("stable + pattern: servers predictable", 96.92, pat.pctPredictable(), pat.Servers),
			share("all long-lived: LL windows chosen correctly", 99, all.pctCorrect(), all.Days),
			share("all long-lived: LL window load predicted accurately", 96, all.pctAccurate(), all.Days),
		},
		Note: fmt.Sprintf("three weekly backup-day evaluations per long-lived server; "+
			"all long-lived: %s predictable (paper 75%%)", pctStr(all.pctPredictable())),
	}, nil
}
