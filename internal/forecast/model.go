// Package forecast implements the time-series forecasting model zoo of
// Section 5.1: persistent forecast (three variants), a singular spectrum
// analysis forecaster (the NimbusML analog), a feed-forward neural network
// (the GluonTS simple feed-forward analog), an additive trend+seasonality
// model (the Prophet analog) and seasonal ARIMA.
//
// Any model can be plugged into the Seagull pipeline through the Model
// interface (Section 2.1's modularity principle).
//
// Concurrency: a Model is NOT safe for concurrent use — models retain
// scratch buffers, weights and RNG state across Train calls precisely so
// repeated training is allocation-lean; give each goroutine its own
// instance (the serving pool and the experiment worker arenas do).
// Equivalence guarantees, all pinned by *_equiv_test.go: retraining a
// retained model equals training a fresh one bit for bit; each model has
// one trainer, pinned against its historical loop, and the one opt-in fast
// path (SSA's randomized SVD) is pinned against the exact decomposition;
// models advertising InferenceDeterministic produce identical forecasts from
// identical trained state, which lets servers skip retrains on
// byte-identical histories. golden_test.go pins every deployed forecast.
//
// Configuration: each model's config holds only what a caller varies — the
// fitting budget (epochs, iterations, samples, search bounds), the seed and
// SSA's SVD choice. Shapes, optimizer settings, sampling granularity and
// history windows are package constants.
package forecast

import (
	"errors"
	"fmt"
	"time"

	"seagull/internal/timeseries"
)

// Common errors returned by models.
var (
	ErrNotTrained  = errors.New("forecast: model not trained")
	ErrNeedHistory = errors.New("forecast: insufficient history")
	ErrUnknown     = errors.New("forecast: unknown model")
)

// Model is a per-server load forecaster. Train fits the model on a history
// series; Forecast then predicts the next horizon observations immediately
// following the training history, at the history's sampling interval.
//
// Implementations are single-server and not safe for concurrent use; the
// pipeline runs one model instance per server partition.
type Model interface {
	// Name identifies the model in experiment output and the registry.
	Name() string
	// Train fits the model. It returns ErrNeedHistory when the series is too
	// short for the model's requirements.
	Train(history timeseries.Series) error
	// Forecast predicts the next horizon observations after the end of the
	// training history. It returns ErrNotTrained before a successful Train.
	Forecast(horizon int) (timeseries.Series, error)
}

// InferenceDeterministic is an optional Model extension. Implementations
// whose DeterministicInference returns true guarantee that Forecast is a
// pure function of the state established by the last successful Train:
// repeated Forecast calls return identical series and consume no internal
// randomness. The serving layer's warm model pool relies on this to skip
// retraining an instance whose last trained history is bit-identical to the
// incoming one. The additive model does NOT implement it: its inference
// draws Monte-Carlo trajectories from the model RNG, which only Train
// re-seeds.
type InferenceDeterministic interface {
	DeterministicInference() bool
}

// PredictDay trains m on history and forecasts the full day immediately
// following it — the "predict customer load per server 24h into the future"
// operation the paper's pipeline performs.
func PredictDay(m Model, history timeseries.Series) (timeseries.Series, error) {
	if err := m.Train(history); err != nil {
		return timeseries.Series{}, err
	}
	ppd := history.PointsPerDay()
	if ppd == 0 {
		return timeseries.Series{}, timeseries.ErrBadInterval
	}
	return m.Forecast(ppd)
}

// Standard model names used by the registry, experiments and the paper's
// figures (Figure 11 abbreviates them PF, N, G, P).
const (
	NamePersistentPrevDay  = "pf-prev-day"
	NamePersistentPrevWeek = "pf-prev-equivalent-day"
	NamePersistentWeekAvg  = "pf-prev-week-average"
	NameSSA                = "nimbus-ssa"
	NameFFNN               = "gluon-ffnn"
	NameAdditive           = "prophet-additive"
	NameARIMA              = "arima"
)

// StandardNames lists every model the experiments compare, in the order the
// paper's figures present them.
var StandardNames = []string{
	NamePersistentPrevDay,
	NameSSA,
	NameFFNN,
	NameAdditive,
}

// New builds a model by registry name with production-default configuration.
// seed drives any stochastic elements (the neural network's initialization
// and the additive model's uncertainty sampling).
func New(name string, seed int64) (Model, error) {
	switch name {
	case NamePersistentPrevDay:
		return NewPersistent(PrevDay), nil
	case NamePersistentPrevWeek:
		return NewPersistent(PrevEquivalentDay), nil
	case NamePersistentWeekAvg:
		return NewPersistent(PrevWeekAverage), nil
	case NameSSA:
		return NewSSA(SSAConfig{}), nil
	case NameFFNN:
		return NewFFNN(FFNNConfig{Seed: seed}), nil
	case NameAdditive:
		return NewAdditive(AdditiveConfig{Seed: seed}), nil
	case NameARIMA:
		return NewARIMA(ARIMAConfig{}), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
}

// prepare fills gaps and validates that history has at least minDays whole
// days; models call it at the top of Train.
func prepare(history timeseries.Series, minDays int) (timeseries.Series, error) {
	ppd := history.PointsPerDay()
	if ppd == 0 {
		return timeseries.Series{}, timeseries.ErrBadInterval
	}
	if history.NumDays() < minDays {
		return timeseries.Series{}, fmt.Errorf("%w: have %d days, need %d",
			ErrNeedHistory, history.NumDays(), minDays)
	}
	return history.FillGaps(), nil
}

// resampleTo coarsens history to the target interval for models that operate
// at a coarser granularity, returning the series and the expansion factor
// back to the original interval. History already at or coarser than the
// target granularity is used as-is.
func resampleTo(history timeseries.Series, target time.Duration) (timeseries.Series, int, error) {
	if history.Interval < target {
		coarse, err := history.Resample(target)
		if err != nil {
			return timeseries.Series{}, 0, err
		}
		return coarse, int(target / history.Interval), nil
	}
	return history, 1, nil
}

// expand stretches a coarse forecast back to a fine interval by repeating
// each coarse observation factor times (piecewise-constant upsampling).
func expand(coarse timeseries.Series, factor int, fineInterval time.Duration, horizon int) timeseries.Series {
	vals := make([]float64, 0, coarse.Len()*factor)
	for _, v := range coarse.Values {
		for k := 0; k < factor; k++ {
			vals = append(vals, v)
		}
	}
	if len(vals) > horizon {
		vals = vals[:horizon]
	}
	for len(vals) < horizon {
		// Degenerate rounding case: pad with the final level.
		last := 0.0
		if len(vals) > 0 {
			last = vals[len(vals)-1]
		}
		vals = append(vals, last)
	}
	return timeseries.New(coarse.Start, fineInterval, vals)
}
