package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/insights"
	"seagull/internal/lake"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simulate"
)

// region sizes (server counts) standing in for the paper's input sizes of
// hundreds of KB to a few GB.
func regionSizes(o Options) []int {
	return pick(o, []int{60, 150}, []int{100, 400, 1000, 2500})
}

// runFig12a runs the full weekly pipeline for regions of growing size and
// reports per-stage wall clock — the component breakdown of Figure 12(a).
func runFig12a(o Options) (Result, error) {
	o = o.withDefaults()
	sizes := regionSizes(o)
	stages := []string{pipeline.StageIngestion, pipeline.StageValidation, pipeline.StageFeatures,
		pipeline.StageDeployment, pipeline.StageTrainInfer, pipeline.StageAccuracy}

	t := Table{
		Caption: "Figure 12(a) — pipeline component runtime per region size (1 week, persistent forecast)",
		Header:  append(append([]string{"servers", "extract MB"}, stages...), "total"),
	}

	for i, n := range sizes {
		dir, err := os.MkdirTemp("", "seagull-fig12a-*")
		if err != nil {
			return Result{}, err
		}
		store, err := lake.Open(dir)
		if err != nil {
			return Result{}, err
		}
		region := fmt.Sprintf("size-%d", n)
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: region, Servers: n, Weeks: 1, Seed: o.Seed + int64(i)*7,
		})
		if _, err := extract.ExtractAll(store, fleet); err != nil {
			return Result{}, err
		}
		sz, err := store.Size(extract.Dataset, region, 0)
		if err != nil {
			return Result{}, err
		}
		db, err := cosmos.Open("")
		if err != nil {
			return Result{}, err
		}
		p := pipeline.New(store, db, registry.New(nil), insights.New(nil))
		res, err := p.RunWeek(context.Background(), pipeline.Config{Region: region, Week: 0, Workers: o.Workers})
		if err != nil {
			return Result{}, fmt.Errorf("fig12a n=%d: %w", n, err)
		}
		took := map[string]time.Duration{}
		for _, st := range res.StageTimings {
			took[st.Stage] = st.Duration
		}
		row := []any{n, fmt.Sprintf("%.1f", float64(sz)/(1<<20))}
		for _, stage := range stages {
			row = append(row, fmtDuration(took[stage]))
		}
		t.AddRow(append(row, fmtDuration(res.Total))...)
		os.RemoveAll(dir)
	}
	return Result{Tables: []Table{t}}, nil
}

// runFig12b times accuracy evaluation against the single-threaded run for
// each worker count: once for the backup day only, and once for every day
// of the week ahead (the paper's planned extension). The evaluation work is
// identical across worker settings; only the partitioning changes.
func runFig12b(o Options) (Result, error) {
	o = o.withDefaults()
	sizes := regionSizes(o)
	mcfg := metrics.DefaultConfig()
	workers := []int{1, 2, 4, 8, 16}
	if !slices.Contains(workers, o.Workers) {
		workers = append(workers, o.Workers)
	}

	t := Table{
		Caption: "Figure 12(b) — accuracy evaluation per worker count",
		Note: "evaluation = LL window + bucket ratio per server-day (Definitions 2 and 8); " +
			"speedup against 1 worker",
		Header: []string{"servers", "workers", "backup day", "speedup", "week", "speedup"},
	}

	for i, n := range sizes {
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: "fig12b", Servers: n, Weeks: 2, Seed: o.Seed + int64(i)*13,
		})
		jobs, err := finalWeekPairs(fleet)
		if err != nil {
			return Result{}, err
		}

		// timeRun evaluates the first days of every job's week, and returns
		// the fastest of three timings: one timing of sub-millisecond work is
		// mostly scheduler noise.
		timeRun := func(pool *parallel.Pool, days int) (time.Duration, error) {
			best := time.Duration(math.MaxInt64)
			for range 3 {
				start := time.Now()
				err := pool.ForEach(len(jobs), func(i int) error {
					j := jobs[i]
					for d := range days {
						if _, err := metrics.EvaluateDay(j.trueDays[d], j.predDays[d], j.window, mcfg); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				best = min(best, time.Since(start))
			}
			return best, nil
		}

		// An untimed pass warms caches and the allocator, so the 1-worker
		// baseline is not the only cold run.
		if _, err := timeRun(parallel.NewPool(1), 7); err != nil {
			return Result{}, err
		}
		var day1, week1 time.Duration
		for _, w := range workers {
			pool := parallel.NewPool(w)
			day, err := timeRun(pool, 1)
			if err != nil {
				return Result{}, err
			}
			week, err := timeRun(pool, 7)
			if err != nil {
				return Result{}, err
			}
			if w == 1 {
				day1, week1 = day, week
			}
			t.AddRow(n, w, fmtDuration(day), speedup(day1, day), fmtDuration(week), speedup(week1, week))
		}
	}
	return Result{Tables: []Table{t}}, nil
}

func speedup(single, par time.Duration) string {
	if par <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.1fx", float64(single)/float64(par))
}
