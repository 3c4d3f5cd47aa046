package experiments

import (
	"fmt"

	"seagull/internal/classify"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
)

// runFig3 classifies a multi-region sample of servers by Definitions 3–6,
// reproducing the population breakdown of Figure 3. The paper used "a random
// sample of several tens of thousands of servers from four regions during
// one month in 2019".
func runFig3(o Options) (Result, error) {
	o = o.withDefaults()
	perRegion := pick(o, 300, 3000)
	regions := []string{"region-a", "region-b", "region-c", "region-d"}
	mcfg := metrics.DefaultConfig()

	sum := classify.NewSummary()
	pool := parallel.NewPool(o.Workers)
	// One result buffer serves every region's classification sweep; each
	// worker carries a classify.Scratch so the Definition 4 stability test
	// reuses one prediction buffer across all servers the worker claims.
	cats := make([]classify.Category, perRegion)
	for ri, region := range regions {
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: region, Servers: perRegion, Weeks: 4, Seed: o.Seed + int64(ri)*97,
		})
		err := parallel.ForEachScratch(pool, len(fleet.Servers),
			func() *classify.Scratch { return &classify.Scratch{} },
			func(i int, sc *classify.Scratch) (err error) {
				srv := fleet.Servers[i]
				cats[i], err = classify.CategorizeScratch(srv.Load(), srv.LifespanDays(), mcfg, sc)
				return err
			})
		if err != nil {
			return Result{}, err
		}
		for _, c := range cats[:len(fleet.Servers)] {
			sum.Add(c)
		}
	}

	// Every share counts all sum.Total servers; the fleets are generated
	// to simulate.PaperMix, which is Figure 3, so sampling bounds the gap.
	n := sum.Total
	return Result{
		Claims: []Claim{
			share("short-lived", 42.1, sum.Pct(classify.ShortLived), n),
			share("long-lived stable", 53.5, sum.Pct(classify.Stable), n),
			share("daily or weekly pattern", 0.2,
				sum.Pct(classify.DailyPattern)+sum.Pct(classify.WeeklyPattern), n),
			share("no pattern", 4.2, sum.Pct(classify.NoPattern), n),
			share("long-lived total", 58, sum.PctLongLived(), n),
			share("expected predictable", 53.7, sum.PctPredictableExpected(), n),
		},
		Note: fmt.Sprintf("%d servers across %d regions, 4 weeks at 5-minute granularity",
			sum.Total, len(regions)),
	}, nil
}
