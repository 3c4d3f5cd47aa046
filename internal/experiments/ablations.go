package experiments

import (
	"fmt"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// Ablations for the design choices DESIGN.md calls out. They are not paper
// figures; they justify the constants of Definitions 1–9 and the deployment
// choice of Section 5.4.

func init() {
	register(Experiment{
		ID:    "ablation-bound",
		Title: "Ablation: asymmetric +10/−5 error bound vs alternatives (Definition 1)",
		Paper: "the paper tolerates +10 over-prediction but only −5 under-prediction " +
			"because under-estimating load risks scheduling backups into busy periods",
		Run: runAblationBound,
	})
	register(Experiment{
		ID:    "ablation-threshold",
		Title: "Ablation: bucket-ratio accuracy threshold sweep (Definition 2)",
		Paper: "the production threshold is 90%",
		Run:   runAblationThreshold,
	})
	register(Experiment{
		ID:    "ablation-history",
		Title: "Ablation: predictability gate length (Definition 9)",
		Paper: "three weeks balances prediction confidence against applicability " +
			"(58% of servers survive beyond three weeks)",
		Run: runAblationHistory,
	})
	register(Experiment{
		ID:    "ablation-pf-variants",
		Title: "Ablation: persistent forecast variants per server class (Section 5.2)",
		Paper: "previous day covers the largest population (53.7%): it captures both " +
			"stable load and daily patterns; previous equivalent day captures weekly patterns",
		Run: runAblationPFVariants,
	})
	register(Experiment{
		ID:    "ablation-workers",
		Title: "Ablation: worker count for parallel accuracy evaluation (Section 6.1)",
		Paper: "Dask gave the paper 3–4.6× speedup over single-threaded evaluation",
		Run:   runAblationWorkers,
	})
}

// runAblationBound evaluates persistent forecast under different acceptable
// error bounds, reporting how many windows each bound accepts as accurate
// and how many of those acceptances are risky — the window's load was
// under-predicted by more than 5 points on over 10% of its observations, the
// exact failure mode the asymmetric bound exists to prevent.
func runAblationBound(o Options) ([]Table, error) {
	o = o.withDefaults()
	n := pick(o, 150, 900)
	fleet := cachedFleet(simulate.Config{
		Region: "ab-bound", Servers: n, Weeks: 2, Seed: o.Seed,
		Mix: simulate.Mix{Daily: 0.5, NoPattern: 0.5},
	})
	bounds := []struct {
		name string
		b    metrics.Bound
	}{
		{"+10/−5 (production)", metrics.Bound{Over: 10, Under: 5}},
		{"±10 symmetric", metrics.Bound{Over: 10, Under: 10}},
		{"±5 symmetric", metrics.Bound{Over: 5, Under: 5}},
		{"+5/−10 (inverted)", metrics.Bound{Over: 5, Under: 10}},
	}

	type pair struct {
		trueDay, predDay timeseries.Series
		window           int
	}
	var pairs []pair
	for _, srv := range fleet.Servers {
		load := srv.Load()
		ppd := load.PointsPerDay()
		nd := load.NumDays()
		if nd < 9 {
			continue
		}
		trueV, err1 := load.View((nd-1)*ppd, nd*ppd)
		predV, err2 := load.View((nd-2)*ppd, (nd-1)*ppd) // persistent forecast
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("ablation-bound day views: %v, %v", err1, err2)
		}
		pairs = append(pairs, pair{
			trueDay: trueV.FillGaps(),
			predDay: predV.FillGaps(),
			window:  srv.WindowPoints(),
		})
	}

	t := Table{
		Caption: "Ablation — acceptable error bound (Definition 1)",
		Note: fmt.Sprintf("%d pattern/unstable servers; 'risky' = accepted window whose load was "+
			"under-predicted by >5 points on >10%% of observations", len(pairs)),
		Header: []string{"bound", "windows accepted accurate", "risky acceptances"},
	}
	// Per-pair verdicts fan out over the shared pool (EvaluateDay itself is
	// allocation-free, so the sweep needs no per-worker arena beyond the
	// outcome buffer reused across bounds).
	pool := parallel.NewPool(o.Workers)
	type verdict struct{ accepted, risky bool }
	verdicts := make([]verdict, len(pairs))
	for _, bb := range bounds {
		cfg := metrics.DefaultConfig()
		cfg.Bound = bb.b
		cfg.WindowBound = bb.b
		err := pool.ForEach(len(pairs), func(i int) error {
			p := pairs[i]
			verdicts[i] = verdict{}
			dr, err := metrics.EvaluateDay(p.trueDay, p.predDay, p.window, cfg)
			if err != nil {
				return err
			}
			if !dr.WindowAccurate {
				return nil
			}
			// Re-examine the accepted window for dangerous under-prediction.
			start, w := dr.Window.Predicted.Start, dr.Window.Predicted.Length
			under := 0
			for k := start; k < start+w; k++ {
				if p.predDay.Values[k] < p.trueDay.Values[k]-5 {
					under++
				}
			}
			verdicts[i] = verdict{accepted: true, risky: float64(under) > 0.1*float64(w)}
			return nil
		})
		if err != nil {
			return nil, err
		}
		accepted, risky := 0, 0
		for _, v := range verdicts {
			if v.accepted {
				accepted++
			}
			if v.risky {
				risky++
			}
		}
		t.AddRow(bb.name, pctStr(float64(accepted)/float64(len(pairs))),
			pctStr(float64(risky)/float64(max(accepted, 1))))
	}
	return []Table{t}, nil
}

// runAblationThreshold sweeps the Definition 2 accuracy threshold and
// reports its effect on window accuracy and predictability.
func runAblationThreshold(o Options) ([]Table, error) {
	o = o.withDefaults()
	n := pick(o, 200, 1200)
	fleet := cachedFleet(simulate.Config{
		Region: "ab-thresh", Servers: n, Weeks: 4, Seed: o.Seed,
	})
	factory := modelFactory(forecast.NamePersistentPrevDay, o.Seed, false)
	pool := parallel.NewPool(o.Workers)
	t := Table{
		Caption: "Ablation — bucket-ratio accuracy threshold (Definition 2)",
		Header:  []string{"threshold", "LL windows accurate", "servers predictable"},
	}
	for _, thr := range []float64{0.70, 0.80, 0.90, 0.95} {
		cfg := metrics.DefaultConfig()
		cfg.AccuracyThreshold = thr
		evals, err := evaluateFleet(fleet, factory, []int{1, 2, 3}, cfg, pool)
		if err != nil {
			return nil, err
		}
		st := aggregate(evals, cfg)
		label := fmt.Sprintf("%.0f%%", thr*100)
		if thr == 0.90 {
			label += " (production)"
		}
		t.AddRow(label, pctStr(st.pctAccurate()), pctStr(st.pctPredictable()))
	}
	return []Table{t}, nil
}

// runAblationHistory sweeps the Definition 9 gate length: how many trailing
// good weeks a server needs before its backups are rescheduled. Longer gates
// schedule fewer servers but the scheduled ones miss less often.
func runAblationHistory(o Options) ([]Table, error) {
	o = o.withDefaults()
	n := pick(o, 200, 1200)
	fleet := cachedFleet(simulate.Config{
		Region: "ab-hist", Servers: n, Weeks: 6, Seed: o.Seed,
		Mix: simulate.Mix{Stable: 0.5, Daily: 0.1, NoPattern: 0.4},
	})
	factory := modelFactory(forecast.NamePersistentPrevDay, o.Seed, false)
	mcfg := metrics.DefaultConfig()
	// Evaluate weeks 1..5: five results per server, so even the 4-week gate
	// has a full history window before the final (week 5) outcome.
	evals, err := evaluateFleet(fleet, factory, []int{1, 2, 3, 4, 5}, mcfg, parallel.NewPool(o.Workers))
	if err != nil {
		return nil, err
	}

	t := Table{
		Caption: "Ablation — predictability gate length (Definition 9)",
		Note: "gate = number of trailing correct+accurate weeks required before trusting a " +
			"server's predictions; quality = share of gated servers whose next LL window was correct",
		Header: []string{"gate weeks", "servers passing gate", "next-window correct among passed"},
	}
	for gate := 1; gate <= 4; gate++ {
		passed, correctAfter := 0, 0
		for _, se := range evals {
			if len(se.results) < gate+1 {
				continue
			}
			hist := se.results[len(se.results)-1-gate : len(se.results)-1]
			ok := true
			for _, dr := range hist {
				if !dr.Window.Correct || !dr.WindowAccurate {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			passed++
			if se.results[len(se.results)-1].Window.Correct {
				correctAfter++
			}
		}
		label := fmt.Sprint(gate)
		if gate == 3 {
			label += " (production)"
		}
		t.AddRow(label, passed, pctStr(float64(correctAfter)/float64(max(passed, 1))))
	}
	return []Table{t}, nil
}

// runAblationPFVariants evaluates the three persistent-forecast variants on
// single-class fleets, reproducing the Section 5.2 argument for deploying
// the previous-day variant.
func runAblationPFVariants(o Options) ([]Table, error) {
	o = o.withDefaults()
	n := pick(o, 60, 300)
	mcfg := metrics.DefaultConfig()
	classes := []struct {
		name string
		mix  simulate.Mix
	}{
		{"stable", simulate.Mix{Stable: 1}},
		{"daily pattern", simulate.Mix{Daily: 1}},
		{"weekly pattern", simulate.Mix{Weekly: 1}},
		{"no pattern", simulate.Mix{NoPattern: 1}},
	}
	variants := []string{
		forecast.NamePersistentPrevDay,
		forecast.NamePersistentPrevWeek,
		forecast.NamePersistentWeekAvg,
	}
	pool := parallel.NewPool(o.Workers)

	t := Table{
		Caption: "Ablation — persistent forecast variants per server class (LL windows correct / window load accurate)",
		Note: "previous day captures stable and daily classes; previous equivalent day additionally captures " +
			"weekly; week-average chooses acceptable windows even where its flat load prediction is inaccurate",
		Header: append([]string{"class"}, variants...),
	}
	for ci, cl := range classes {
		fleet := cachedFleet(simulate.Config{
			Region: "ab-pf", Servers: n, Weeks: 4, Seed: o.Seed + int64(ci)*11, Mix: cl.mix,
		})
		row := []any{cl.name}
		for _, v := range variants {
			factory := modelFactory(v, o.Seed, false)
			evals, err := evaluateFleet(fleet, factory, []int{2, 3}, mcfg, pool)
			if err != nil {
				return nil, err
			}
			st := aggregate(evals, mcfg)
			row = append(row, fmt.Sprintf("%s / %s", pctStr(st.pctCorrect()), pctStr(st.pctAccurate())))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
}

// runAblationWorkers sweeps the worker-pool size for the accuracy
// evaluation workload of Figure 12(b).
func runAblationWorkers(o Options) ([]Table, error) {
	o = o.withDefaults()
	n := pick(o, 400, 2000)
	fleet := cachedFleet(simulate.Config{
		Region: "ab-workers", Servers: n, Weeks: 2, Seed: o.Seed,
	})
	mcfg := metrics.DefaultConfig()

	type pair struct {
		trueDays, predDays []timeseries.Series
		window             int
	}
	var pairs []pair
	for _, srv := range fleet.Servers {
		load := srv.Load()
		ppd := load.PointsPerDay()
		nd := load.NumDays()
		if nd < 9 {
			continue
		}
		p := pair{window: srv.WindowPoints()}
		for d := nd - 7; d < nd; d++ {
			cur, err1 := load.View(d*ppd, (d+1)*ppd)
			prev, err2 := load.View((d-1)*ppd, d*ppd)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("ablation-workers day views: %v, %v", err1, err2)
			}
			p.trueDays = append(p.trueDays, cur.FillGaps())
			p.predDays = append(p.predDays, prev.FillGaps())
		}
		pairs = append(pairs, p)
	}
	evalWeek := func(p pair) error {
		for d := range p.trueDays {
			if _, err := metrics.EvaluateDay(p.trueDays[d], p.predDays[d], p.window, mcfg); err != nil {
				return err
			}
		}
		return nil
	}

	t := Table{
		Caption: "Ablation — worker count for parallel accuracy evaluation (full-week workload)",
		Note:    fmt.Sprintf("%d servers × 7 days", len(pairs)),
		Header:  []string{"workers", "wall clock", "speedup vs 1"},
	}
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8, 16, o.Workers} {
		pool := parallel.NewPool(workers)
		start := time.Now()
		if err := pool.ForEach(len(pairs), func(i int) error { return evalWeek(pairs[i]) }); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if workers == 1 {
			base = d
		}
		t.AddRow(workers, fmtDuration(d), speedup(base, d))
	}
	return []Table{t}, nil
}
