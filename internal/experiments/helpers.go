package experiments

import (
	"os"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/forecast"
	"seagull/internal/insights"
	"seagull/internal/lake"
	"seagull/internal/metrics"
	"seagull/internal/parallel"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simulate"
)

// modelFactory returns a constructor for fresh model instances. At small
// scale it selects reduced fitting budgets so runs stay quick; relative cost
// ordering between models is preserved. The fast SSA profile opts into the
// randomized trajectory SVD the production default keeps off (≤1e-6
// forecast equivalence, TestSSARandomizedMatchesJacobi).
func modelFactory(name string, o Options) func() (forecast.Model, error) {
	return func() (forecast.Model, error) {
		if o.Scale == ScaleSmall {
			switch name {
			case forecast.NameAdditive:
				return forecast.NewAdditive(forecast.AdditiveConfig{
					Seed: o.Seed, Iterations: 200, Samples: 200,
				}), nil
			case forecast.NameFFNN:
				return forecast.NewFFNN(forecast.FFNNConfig{Seed: o.Seed, Epochs: 8}), nil
			case forecast.NameSSA:
				return forecast.NewSSA(forecast.SSAConfig{RandomizedSVD: true, Seed: o.Seed}), nil
			}
		}
		return forecast.New(name, o.Seed)
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
// three days of history. The result holds each server's chronological
// backup-day evaluations, none for a short-lived server.
//
// Callers pass the shared worker pool so one pool serves every model, region
// and sweep point of an experiment run; each worker carries one modelArena
// for all its servers.
func evaluateFleet(fleet *simulate.Fleet, newModel func() (forecast.Model, error),
	weeks []int, mcfg metrics.Config, pool *parallel.Pool) ([][]metrics.DayResult, error) {

	evals := make([][]metrics.DayResult, len(fleet.Servers))
	err := parallel.ForEachScratch(pool, len(fleet.Servers),
		func() *modelArena { return &modelArena{} },
		func(i int, arena *modelArena) error {
			srv := fleet.Servers[i]
			if srv.ShortLived {
				return nil
			}
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
				dr, err := metrics.EvaluateDay(trueDay.FillGaps(), pred, srv.WindowPoints(), mcfg)
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

// lakePipeline extracts every week of fleet into a lake in a fresh
// temporary directory and returns a pipeline over it, with an in-memory
// cosmos and registry. done removes the directory.
func lakePipeline(fleet *simulate.Fleet) (p *pipeline.Pipeline, done func(), err error) {
	dir, err := os.MkdirTemp("", "seagull-experiments-*")
	if err != nil {
		return nil, nil, err
	}
	done = func() { os.RemoveAll(dir) }
	store, err := lake.Open(dir)
	if err == nil {
		_, err = extract.ExtractAll(store, fleet)
	}
	if err != nil {
		done()
		return nil, nil, err
	}
	db, _ := cosmos.Open("") // in memory: no directory to fail on
	return pipeline.New(store, db, registry.New(nil), insights.New(nil)), done, nil
}
