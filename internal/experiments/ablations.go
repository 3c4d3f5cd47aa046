package experiments

import (
	"fmt"
	"slices"

	"seagull/internal/forecast"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/simulate"
)

// Ablations for the design choices DESIGN.md calls out. They are not paper
// figures; they justify the constants of Definitions 1–9 and the deployment
// choice of Section 5.4.

// runAblationBound evaluates persistent forecast under different acceptable
// error bounds, reporting how many windows each bound accepts as accurate
// and how many of those acceptances are risky — the window's load was
// under-predicted by more than 5 points on over 10% of its observations, the
// exact failure mode the asymmetric bound exists to prevent.
func runAblationBound(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 150, 900)
	fleet := simulate.GenerateFleet(simulate.Config{
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

	accepted, risky := make([]int, len(bounds)), make([]int, len(bounds))
	servers := 0
	for _, srv := range fleet.Servers {
		load := srv.Load()
		ppd, nd := load.PointsPerDay(), load.NumDays()
		if nd < 9 {
			continue
		}
		servers++
		// The final day and its persistent forecast, the day before, gaps
		// filled; both views lie inside the nine days just checked.
		cur, _ := load.View((nd-1)*ppd, nd*ppd)
		prev, _ := load.View((nd-2)*ppd, (nd-1)*ppd)
		trueDay, predDay := cur.FillGaps(), prev.FillGaps()
		for bi, bb := range bounds {
			cfg := metrics.DefaultConfig()
			cfg.Bound, cfg.WindowBound = bb.b, bb.b
			dr, err := metrics.EvaluateDay(trueDay, predDay, srv.WindowPoints(), cfg)
			if err != nil {
				return Result{}, err
			}
			if !dr.WindowAccurate {
				continue
			}
			accepted[bi]++
			// Re-examine the accepted window for dangerous under-prediction.
			start, w := dr.Window.Predicted.Start, dr.Window.Predicted.Length
			under := 0
			for k := start; k < start+w; k++ {
				if predDay.Values[k] < trueDay.Values[k]-5 {
					under++
				}
			}
			if float64(under) > 0.1*float64(w) {
				risky[bi]++
			}
		}
	}

	t := Table{
		Caption: "Ablation — acceptable error bound (Definition 1)",
		Note: fmt.Sprintf("%d pattern/unstable servers; 'risky' = accepted window whose load was "+
			"under-predicted by >5 points on >10%% of observations", servers),
		Header: []string{"bound", "windows accepted accurate", "risky acceptances"},
	}
	for bi, bb := range bounds {
		t.AddRow(bb.name, pctStr(ratio(accepted[bi], servers)), pctStr(ratio(risky[bi], accepted[bi])))
	}
	// The paper's reason for the asymmetry is that it admits fewer risky
	// windows than the symmetric ±10 bound; the band ends at 0 because any
	// positive difference means the production bound admitted more.
	return Result{
		Claims: []Claim{{Metric: "risky acceptances: +10/−5 minus ±10 symmetric", Paper: "fewer",
			Got: 100 * (ratio(risky[0], accepted[0]) - ratio(risky[1], accepted[1])), Min: -100, Max: 0, Unit: "pp"}},
		Tables: []Table{t},
	}, nil
}

// runAblationThreshold sweeps the Definition 2 accuracy threshold and
// reports its effect on window accuracy and predictability.
func runAblationThreshold(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 200, 1200)
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "ab-thresh", Servers: n, Weeks: 4, Seed: o.Seed,
	})
	factory := modelFactory(forecast.NamePersistentPrevDay, o)
	pool := parallel.NewPool(o.Workers)
	t := Table{
		Caption: "Ablation — bucket-ratio accuracy threshold (Definition 2)",
		Header:  []string{"threshold", "LL windows accurate", "servers predictable"},
	}
	var prod Claim
	for _, thr := range []float64{0.70, 0.80, 0.90, 0.95} {
		cfg := metrics.DefaultConfig()
		cfg.AccuracyThreshold = thr
		evals, err := evaluateFleet(fleet, factory, []int{1, 2, 3}, cfg, pool)
		if err != nil {
			return Result{}, err
		}
		st := aggregate(evals, cfg)
		label := fmt.Sprintf("%.0f%%", thr*100)
		if thr == 0.90 {
			label += " (production)"
			// At the production threshold this fleet (the Figure 3 mix,
			// persistent forecast) is Section 5.4's deployed population, so
			// its accurate-window share is the paper's 96% up to sampling.
			prod = share("LL windows accurate at the 90% threshold (Section 5.4)", 96, st.pctAccurate(), st.Days)
		}
		t.AddRow(label, pctStr(st.pctAccurate()), pctStr(st.pctPredictable()))
	}
	return Result{Claims: []Claim{prod}, Tables: []Table{t}}, nil
}

// runAblationHistory sweeps the Definition 9 gate length: how many trailing
// good weeks a server needs before its backups are rescheduled. Longer gates
// schedule fewer servers but the scheduled ones miss less often.
func runAblationHistory(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 200, 1200)
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "ab-hist", Servers: n, Weeks: 6, Seed: o.Seed,
		Mix: simulate.Mix{Stable: 0.5, Daily: 0.1, NoPattern: 0.4},
	})
	factory := modelFactory(forecast.NamePersistentPrevDay, o)
	mcfg := metrics.DefaultConfig()
	// Evaluate weeks 1..5: five results per server, so even the 4-week gate
	// has a full history window before the final (week 5) outcome.
	evals, err := evaluateFleet(fleet, factory, []int{1, 2, 3, 4, 5}, mcfg, parallel.NewPool(o.Workers))
	if err != nil {
		return Result{}, err
	}

	t := Table{
		Caption: "Ablation — predictability gate length (Definition 9)",
		Note: "gate = number of trailing correct+accurate weeks required before trusting a " +
			"server's predictions; quality = share of gated servers whose next LL window was correct",
		Header: []string{"gate weeks", "servers passing gate", "next-window correct among passed"},
	}
	var rate [5]float64 // rate[gate]: next-window correct among passed
	var passed3 int
	for gate := 1; gate <= 4; gate++ {
		passed, correctAfter := 0, 0
		for _, results := range evals {
			if len(results) < gate+1 {
				continue
			}
			hist := results[len(results)-1-gate : len(results)-1]
			if slices.ContainsFunc(hist, func(dr metrics.DayResult) bool { return !dr.Window.Correct || !dr.WindowAccurate }) {
				continue
			}
			passed++
			if results[len(results)-1].Window.Correct {
				correctAfter++
			}
		}
		rate[gate] = ratio(correctAfter, passed)
		label := fmt.Sprint(gate)
		if gate == 3 {
			label += " (production)"
			passed3 = passed
		}
		t.AddRow(label, passed, pctStr(rate[gate]))
	}
	// Confidence: the band starts at 0, where a three-week gate would stop
	// buying any over a one-week gate. Balance: a fourth week buys no more
	// than the sampling noise of the gate-3 share over its passed servers.
	// (The 58% surviving three weeks is fig3's long-lived claim.)
	d := noise(rate[3], passed3)
	return Result{
		Claims: []Claim{
			{Metric: "next-window correct: gate 3 minus gate 1", Paper: "more confident",
				Got: 100 * (rate[3] - rate[1]), Min: 0, Max: 100, Unit: "pp"},
			{Metric: "next-window correct: gate 4 minus gate 3", Paper: "three weeks suffice",
				Got: 100 * (rate[4] - rate[3]), Min: -d, Max: d, Unit: "pp"},
		},
		Tables: []Table{t},
	}, nil
}

// runAblationPFVariants evaluates the three persistent-forecast variants on
// single-class fleets, reproducing the Section 5.2 argument for deploying
// the previous-day variant.
func runAblationPFVariants(o Options) (Result, error) {
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
	stats := make([][]fleetStats, len(classes)) // [class][variant]
	for ci, cl := range classes {
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: "ab-pf", Servers: n, Weeks: 4, Seed: o.Seed + int64(ci)*11, Mix: cl.mix,
		})
		row := []any{cl.name}
		for _, v := range variants {
			factory := modelFactory(v, o)
			evals, err := evaluateFleet(fleet, factory, []int{2, 3}, mcfg, pool)
			if err != nil {
				return Result{}, err
			}
			st := aggregate(evals, mcfg)
			stats[ci] = append(stats[ci], st)
			row = append(row, fmt.Sprintf("%s / %s", pctStr(st.pctCorrect()), pctStr(st.pctAccurate())))
		}
		t.AddRow(row...)
	}
	// Section 5.3.2's 99.06% accurate windows is previous-day PF on stable
	// and pattern servers; a variant that captures a class reaches it up to
	// the sampling noise over that class's server-days.
	stable, daily, weekly := stats[0][0], stats[1][0], stats[2][1]
	return Result{
		Claims: []Claim{
			share("stable, previous day: LL window load accurate", 99.06, stable.pctAccurate(), stable.Days),
			share("daily pattern, previous day: LL window load accurate", 99.06, daily.pctAccurate(), daily.Days),
			share("weekly pattern, previous equivalent day: LL window load accurate", 99.06,
				weekly.pctAccurate(), weekly.Days),
		},
		Tables: []Table{t},
	}, nil
}
