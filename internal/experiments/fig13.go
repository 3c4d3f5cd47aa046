package experiments

import (
	"context"
	"fmt"

	"seagull/internal/metrics"
	"seagull/internal/pipeline"
	"seagull/internal/scheduler"
	"seagull/internal/simulate"
)

// impactFleet runs the full pipeline + scheduler flow over a fleet and
// returns the impact over the servers of one generator class and over the
// whole fleet.
func impactFleet(o Options, fleet *simulate.Fleet, class simulate.Class) (im, total scheduler.Impact, err error) {
	p, done, err := lakePipeline(fleet)
	if err != nil {
		return im, total, err
	}
	defer done()
	region := fleet.Config.Region
	for w := 0; w < fleet.Config.Weeks; w++ {
		if _, err := p.RunWeek(context.Background(), pipeline.Config{Region: region, Week: w, Workers: o.Workers}); err != nil {
			return im, total, err
		}
	}
	sched := scheduler.New(p.DB, scheduler.NewFabricStore(), metrics.DefaultConfig())
	decisions, err := sched.ScheduleWeek(context.Background(), region, fleet.Config.Weeks-1)
	if err != nil {
		return im, total, err
	}

	// Select the class's decisions by the generator's ground truth.
	inClass := map[string]bool{}
	for _, srv := range fleet.Servers {
		inClass[srv.ID] = srv.Class == class
	}
	var ds []scheduler.Decision
	for _, d := range decisions {
		if inClass[d.ServerID] {
			ds = append(ds, d)
		}
	}
	if im, err = scheduler.EvaluateImpact(ds, fleet.TrueDay, metrics.DefaultConfig()); err != nil {
		return im, total, err
	}
	total, err = scheduler.EvaluateImpact(decisions, fleet.TrueDay, metrics.DefaultConfig())
	return im, total, err
}

// runFig13a reproduces the impact accounting. Two populations are evaluated:
// the paper-mix fleet (for the stable-server and busy-server statistics) and
// a pattern-heavy fleet (for the daily-pattern bucket percentages, which the
// paper reports over the daily-pattern sub-population).
func runFig13a(o Options) (Result, error) {
	o = o.withDefaults()
	nMix := pick(o, 250, 2000)
	nPattern := pick(o, 200, 1200)

	mixFleet := simulate.GenerateFleet(simulate.Config{
		Region: "impact-mix", Servers: nMix, Weeks: 4, Seed: o.Seed,
	})
	stable, mixTotal, err := impactFleet(o, mixFleet, simulate.ClassStable)
	if err != nil {
		return Result{}, err
	}

	patternFleet := simulate.GenerateFleet(simulate.Config{
		Region: "impact-daily", Servers: nPattern, Weeks: 4, Seed: o.Seed + 5,
		Mix:          simulate.Mix{Daily: 0.9, Stable: 0.1},
		BusyFraction: 0.3,
	})
	daily, _, err := impactFleet(o, patternFleet, simulate.ClassDaily)
	if err != nil {
		return Result{}, err
	}

	// Bucket shares count scheduled decisions, collision shares count busy
	// servers. The paper reports them over real sub-populations that the
	// generator's classes stand in for, so sampling bounds the gap.
	t := Table{
		Caption: "Figure 13(a) — whole fleet",
		Note:    "the paper's several hundred improved hours a month count a whole region's month",
		Header:  []string{"metric", "this run"},
	}
	t.AddRow("scheduled by prediction", fmt.Sprintf("%d of %d", mixTotal.Scheduled, mixTotal.Decisions))
	t.AddRow("improved customer hours", fmt.Sprintf("%.1fh", float64(mixTotal.ImprovedMinutes+daily.ImprovedMinutes)/60))
	return Result{
		Claims: []Claim{
			share("daily pattern: defaults already in LL windows", 85.3, daily.PctDefaultWasLL(), daily.Scheduled),
			share("daily pattern: backups moved into correct LL windows", 12.5, daily.PctMoved(), daily.Scheduled),
			share("daily pattern: LL window not chosen correctly", 2.1, daily.PctIncorrect(), daily.Scheduled),
			share("stable: defaults already in LL windows", 99.5, stable.PctDefaultWasLL(), stable.Scheduled),
			share("busy (>60% load): collisions with peaks avoided", 7.7, daily.PctCollisionsAvoided(), daily.BusyServers),
		},
		Note: "daily-pattern and busy rows measured on a pattern-heavy fleet, as the paper reports " +
			"them over the daily-pattern sub-population; the stable row from the Figure 3 mix",
		Tables: []Table{t},
	}, nil
}

// runFig13b histograms each server's maximal CPU load over its final week —
// the capacity headroom view motivating auto-scale.
func runFig13b(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 600, 5000)
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "fig13b", Servers: n, Weeks: 4, Seed: o.Seed,
	})

	var buckets [10]int
	atCapacity, total := 0, 0
	for _, srv := range fleet.Servers {
		load := srv.Load()
		ppd, nd := load.PointsPerDay(), load.NumDays()
		if nd < 7 {
			continue
		}
		week, _ := load.View((nd-7)*ppd, nd*ppd) // in range: nd whole days exist
		maxLoad, idx := week.Max()
		if idx < 0 {
			continue
		}
		total++
		buckets[min(int(maxLoad/10), 9)]++
		if maxLoad >= 99.5 {
			atCapacity++
		}
	}

	t := Table{
		Caption: "Figure 13(b) — servers per maximal CPU load (one week)",
		Note:    fmt.Sprintf("%d servers with a full final week of telemetry", total),
		Header:  []string{"max CPU bucket", "servers", "share"},
	}
	for b := 0; b < 10; b++ {
		t.AddRow(fmt.Sprintf("%d–%d%%", b*10, b*10+10), buckets[b], pctStr(ratio(buckets[b], total)))
	}
	// The share counts servers; the generator saturates
	// simulate.Config.CapacityFraction = 3.7% of long-lived servers, the
	// paper's figure, so sampling bounds the gap.
	return Result{
		Claims: []Claim{share("servers reaching capacity (≥99.5%) within a week", 3.7, ratio(atCapacity, total), total)},
		Tables: []Table{t},
	}, nil
}
