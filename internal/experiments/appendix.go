package experiments

import (
	"fmt"
	"math"
	"slices"

	"seagull/internal/autoscale"
	"seagull/internal/forecast"
	"seagull/internal/simulate"
)

// runA1 classifies a synthetic SQL database population per Definition 10.
func runA1(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 800, 5000)
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: n, Days: 28, Seed: o.Seed})
	var c autoscale.Classifier
	stable, total, err := c.ClassifySQLFleet(dbs)
	if err != nil {
		return Result{}, err
	}
	// The share counts databases; the generator draws the paper's stable
	// share, so sampling bounds the gap.
	return Result{
		Claims: []Claim{share("stable databases", 19.36, ratio(stable, total), total)},
		Note:   fmt.Sprintf("%d databases, 15-minute granularity, one month", total),
	}, nil
}

// runFig1617 compares persistent forecast, the neural network and ARIMA on
// 24h-ahead SQL database prediction (Figure 16), and checks Figure 17's
// "persistent forecast needs no training" by a count: its predicted day is
// bit for bit the last day it was given, so it fits nothing.
func runFig1617(o Options) (Result, error) {
	o = o.withDefaults()
	n := pick(o, 24, 120)
	dbs := simulate.GenerateSQL(simulate.SQLConfig{Databases: n, Days: 9, Seed: o.Seed})

	names := []string{
		forecast.NamePersistentPrevDay,
		forecast.NameFFNN, // the paper's "neural network" is GluonTS
		forecast.NameARIMA,
	}
	evs, err := autoscale.CompareModels(names, dbs, autoscale.EvalConfig{Workers: o.Workers, Seed: o.Seed})
	if err != nil {
		return Result{}, err
	}
	// Previous-day PF on the week autoscale.EvaluateModel trains on.
	copied := 0
	for _, db := range dbs {
		ppd := db.Load.PointsPerDay()
		end := db.Load.Len() - ppd
		hist, err := db.Load.View(end-autoscale.TrainDays*ppd, end)
		if err != nil {
			return Result{}, err
		}
		pred, err := forecast.PredictDay(forecast.NewPersistent(forecast.PrevDay), hist)
		if err != nil {
			return Result{}, err
		}
		if slices.EqualFunc(pred.Values, hist.Values[hist.Len()-ppd:], func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			copied++
		}
	}

	acc := Table{
		Caption: "Figure 16 — model accuracy on SQL databases (lower is better; <1 beats the naive baseline)",
		Note:    fmt.Sprintf("%d databases, trained on one week, predicting 24h ahead", n),
		Header:  []string{"model", "mean NRMSE", "mean MASE", "databases"},
	}
	for _, ev := range evs {
		acc.AddRow(ev.Model, fmt.Sprintf("%.3f", ev.MeanNRMSE), fmt.Sprintf("%.3f", ev.MeanMASE), ev.Databases)
	}
	// "Competitive" is read strictly: the band ends at 1, where persistent
	// forecast stops being at least as accurate as the neural network. A
	// forecast that fits nothing repeats its input on every database, so
	// "needs no training" admits no exception: the band is [100, 100].
	return Result{
		Claims: []Claim{
			{Metric: "NRMSE ratio, persistent forecast / neural network",
				Paper: "competitive", Got: evs[0].MeanNRMSE / evs[1].MeanNRMSE, Min: 0, Max: 1},
			{Metric: "databases whose persistent forecast is bit-identical to the day before",
				Paper: "needs no training", Got: 100 * ratio(copied, n), Min: 100, Max: 100, Unit: "%"},
		},
		Tables: []Table{acc},
	}, nil
}
