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

// modelFactory returns a constructor for fresh model instances. fast selects
// reduced fitting budgets so small-scale runs stay quick; relative cost
// ordering between models is preserved. The fast SSA profile opts into the
// randomized trajectory SVD the production default keeps off (≤1e-6
// forecast equivalence, TestSSARandomizedMatchesJacobi).
func modelFactory(name string, seed int64, fast bool) func() (forecast.Model, error) {
	if !fast {
		return func() (forecast.Model, error) { return forecast.New(name, seed) }
	}
	return func() (forecast.Model, error) {
		switch name {
		case forecast.NameAdditive:
			return forecast.NewAdditive(forecast.AdditiveConfig{
				Seed: seed, Iterations: 200, Samples: 200,
			}), nil
		case forecast.NameFFNN:
			return forecast.NewFFNN(forecast.FFNNConfig{Seed: seed, Epochs: 8}), nil
		case forecast.NameSSA:
			return forecast.NewSSA(forecast.SSAConfig{RandomizedSVD: true, Seed: seed}), nil
		case forecast.NameARIMA:
			return forecast.NewARIMA(forecast.ARIMAConfig{MaxP: 1, MaxQ: 1, SearchBudget: 60}), nil
		default:
			return forecast.New(name, seed)
		}
	}
}

// modelArena is the per-worker scratch evaluateFleet threads through
// parallel.ForEachScratch: one model instance (created lazily on the
// worker's first server) retrained across every server the worker claims.
// The forecast models all pin retrain-equals-fresh behaviour in their
// equivalence tests, so carrying weights, design matrices and solver
// buffers across servers changes nothing but the allocation profile.
type modelArena struct {
	model forecast.Model
	err   error
}

func (ar *modelArena) get(newModel func() (forecast.Model, error)) (forecast.Model, error) {
	if ar.model == nil && ar.err == nil {
		ar.model, ar.err = newModel()
	}
	return ar.model, ar.err
}

// evaluateFleet trains/infers per server per backup week and evaluates the
// backup-day prediction, exactly following the paper's methodology
// (Section 5.3.1): each model is trained on up to one week of data
// immediately preceding the server's backup day; servers need at least
// three days of history. Short-lived servers are skipped; the result holds
// each long-lived server's chronological backup-day evaluations.
//
// Callers pass the shared worker pool so one pool serves every model, region
// and sweep point of an experiment run; each worker carries one modelArena
// for all its servers.
func evaluateFleet(fleet *simulate.Fleet, newModel func() (forecast.Model, error),
	weeks []int, mcfg metrics.Config, pool *parallel.Pool) ([][]metrics.DayResult, error) {

	var longLived []*simulate.Server
	for _, srv := range fleet.Servers {
		if !srv.ShortLived {
			longLived = append(longLived, srv)
		}
	}
	evals := make([][]metrics.DayResult, len(longLived))
	err := parallel.ForEachScratch(pool, len(longLived),
		func() *modelArena { return &modelArena{} },
		func(i int, arena *modelArena) error {
			srv := longLived[i]
			load := srv.Load()
			ppd := load.PointsPerDay()
			for _, week := range weeks {
				dayGlobal := week*7 + int(srv.BackupDay)
				dayIdx := dayGlobal * ppd
				if dayIdx+ppd > load.Len() {
					continue
				}
				trainPoints := min(7*ppd, dayIdx)
				if trainPoints < 3*ppd {
					continue
				}
				history, err := load.View(dayIdx-trainPoints, dayIdx)
				if err != nil {
					return err
				}
				m, err := arena.get(newModel)
				if err != nil {
					return err
				}
				pred, err := forecast.PredictDay(m, history.FillGaps())
				if err != nil {
					continue // model cannot fit this server; treated as skipped
				}
				trueDay, err := load.View(dayIdx, dayIdx+ppd)
				if err != nil {
					return err
				}
				w := srv.WindowPoints()
				dr, err := metrics.EvaluateDay(trueDay.FillGaps(), pred, w, mcfg)
				if err != nil {
					return err
				}
				evals[i] = append(evals[i], dr)
			}
			return nil
		})
	return evals, err
}

// fleetStats aggregates evaluations into the three paper percentages: share
// of correctly chosen LL windows, share of windows with accurately predicted
// load (both over all server-days), and share of predictable servers
// (Definition 9, over servers with enough evaluated weeks).
type fleetStats struct {
	Days        int
	Correct     int
	Accurate    int
	Servers     int
	Predictable int
}

func aggregate(evals [][]metrics.DayResult, mcfg metrics.Config) fleetStats {
	var st fleetStats
	for _, results := range evals {
		if len(results) == 0 {
			continue
		}
		st.Servers++
		for _, dr := range results {
			st.Days++
			if dr.Window.Correct {
				st.Correct++
			}
			if dr.WindowAccurate {
				st.Accurate++
			}
		}
		if metrics.Predictable(results, mcfg) {
			st.Predictable++
		}
	}
	return st
}

func (st fleetStats) pctCorrect() float64     { return ratio(st.Correct, st.Days) }
func (st fleetStats) pctAccurate() float64    { return ratio(st.Accurate, st.Days) }
func (st fleetStats) pctPredictable() float64 { return ratio(st.Predictable, st.Servers) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dayPairs is one server's final week for accuracy evaluation: each day's
// true load and its persistent forecast (the day before), gaps filled.
type dayPairs struct {
	trueDays, predDays []timeseries.Series
	window             int
}

// finalWeekPairs builds the dayPairs of every server with at least nine
// days of telemetry, ahead of the evaluation that is timed or swept, so that
// it isolates accuracy evaluation, as in the paper.
func finalWeekPairs(fleet *simulate.Fleet) ([]dayPairs, error) {
	var out []dayPairs
	for _, srv := range fleet.Servers {
		load := srv.Load()
		ppd := load.PointsPerDay()
		nd := load.NumDays()
		if nd < 9 {
			continue
		}
		p := dayPairs{window: srv.WindowPoints()}
		// Day views share the load's backing array; FillGaps makes the
		// one copy each day actually needs.
		for d := nd - 7; d < nd; d++ {
			cur, err1 := load.View(d*ppd, (d+1)*ppd)
			prev, err2 := load.View((d-1)*ppd, d*ppd)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("day views: %v, %v", err1, err2)
			}
			p.trueDays = append(p.trueDays, cur.FillGaps())
			p.predDays = append(p.predDays, prev.FillGaps())
		}
		out = append(out, p)
	}
	return out, nil
}

// unstableFleet returns a fleet of long-lived servers without
// recognizable patterns — the population the paper applies ML models to
// (Section 5.3.3).
func unstableFleet(region string, servers int, seed int64) *simulate.Fleet {
	return simulate.GenerateFleet(simulate.Config{
		Region: region, Servers: servers, Weeks: 4, Seed: seed,
		Mix: simulate.Mix{NoPattern: 1},
	})
}

// fmtDuration renders a duration compactly for tables.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}
