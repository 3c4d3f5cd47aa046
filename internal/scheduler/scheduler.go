// Package scheduler implements the use-case-specific online components of
// Section 2.3: the backup scheduling algorithm that, for every server due
// for a full backup, verifies the server was predictable for the last three
// weeks (Definition 9), selects the predicted lowest-load window, and stores
// its start time as a service-fabric property consumed by the backup
// service. Servers that were not predictable keep their default,
// activity-agnostic backup window.
//
// The package also contains the impact accounting behind Figure 13(a):
// how many backups moved into correctly chosen LL windows, how many default
// windows already were LL windows, and how many collisions with peak
// customer activity were avoided for busy servers.
//
// Concurrency: the Scheduler and FabricStore are safe for concurrent use;
// ScheduleWeek observes its ctx between servers. Equivalence: scheduling is
// a pure function of the stored predictions and evaluation history, so
// re-running a week over unchanged documents reproduces identical
// decisions.
package scheduler

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"seagull/internal/cosmos"
	"seagull/internal/jsonbody"
	"seagull/internal/metrics"
	"seagull/internal/pipeline"
	"seagull/internal/simclock"
	"seagull/internal/timeseries"
)

// Source says who chose a backup window.
type Source string

// Window sources.
const (
	SourcePredicted Source = "predicted" // LL window from the deployed model
	SourceDefault   Source = "default"   // activity-agnostic default window
)

// Property is the service-fabric property the backup service reads: the
// chosen backup window start for one server.
type Property struct {
	ServerID string    `json:"server_id"`
	Start    time.Time `json:"start"`
	Source   Source    `json:"source"`
	// SetAt is when the scheduler wrote the property.
	SetAt time.Time `json:"set_at"`
}

// FabricStore is the service-fabric property store analog. Safe for
// concurrent use.
type FabricStore struct {
	mu    sync.RWMutex
	props map[string]Property
}

// NewFabricStore returns an empty property store.
func NewFabricStore() *FabricStore {
	return &FabricStore{props: map[string]Property{}}
}

// Set writes the property for a server.
func (f *FabricStore) Set(p Property) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.props[p.ServerID] = p
}

// Get returns the property for a server.
func (f *FabricStore) Get(serverID string) (Property, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.props[serverID]
	return p, ok
}

// Len returns the number of stored properties.
func (f *FabricStore) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.props)
}

// Decision is one scheduling outcome.
type Decision struct {
	ServerID     string
	Week         int
	BackupDay    time.Time // midnight of the backup day
	WindowPoints int
	IntervalMin  int
	Start        time.Time // chosen window start
	Source       Source
	DefaultStart time.Time // the pre-existing default window start
	PredLLStart  int       // index of the predicted LL window within the day
}

// Scheduler decides backup windows from the pipeline's stored predictions
// and predictability verdicts. It is the "MDS runner" deployable of the
// paper, reduced to its decision logic.
type Scheduler struct {
	DB      *cosmos.DB
	Fabric  *FabricStore
	Metrics metrics.Config
	// Clock stamps fabric properties; nil means wall clock.
	Clock simclock.Clock
}

// New returns a scheduler over the given document store and property store.
func New(db *cosmos.DB, fabric *FabricStore, cfg metrics.Config) *Scheduler {
	return &Scheduler{DB: db, Fabric: fabric, Metrics: cfg, Clock: simclock.Wall}
}

// predictionFields is the part of a pipeline.PredictionDoc a decision reads:
// its walk skips the stored forecast values unconverted.
type predictionFields struct {
	ServerID     string    `json:"server_id"`
	Week         int       `json:"week"`
	BackupDay    time.Time `json:"backup_day"`
	WindowPoints int       `json:"window_points"`
	IntervalMin  int       `json:"interval_min"`
	DefaultStart time.Time `json:"default_start"`
	LLStart      int       `json:"ll_start"`
}

var predictionNames = []string{"server_id", "week", "backup_day", "window_points", "interval_min", "default_start", "ll_start"}

// WalkJSON implements jsonbody.Walker.
func (p *predictionFields) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(predictionNames, &p.ServerID, &p.Week, &p.BackupDay, &p.WindowPoints, &p.IntervalMin, &p.DefaultStart, &p.LLStart)
}

// ScheduleWeek chooses backup windows for every server with a stored
// prediction for `week` in `region`. A server gets its predicted LL window
// only when its Definition 9 verdict from the *previous* week's evaluation
// is positive — "we verify that the servers were predictable for several
// weeks and we do not reschedule a backup at a worse time based on
// predictions we are not confident in" (Section 2.3). All other servers
// keep their default window. Cancelling ctx stops the sweep at the next
// server; decisions already written to the fabric store stay in place (each
// is individually complete).
func (s *Scheduler) ScheduleWeek(ctx context.Context, region string, week int) ([]Decision, error) {
	predCol := s.DB.Collection(pipeline.PredictionsCollection)
	evalCol := s.DB.Collection("evaluations")
	var decisions []Decision
	// The region's partition holds every stored week; skipping other weeks'
	// ids before decoding keeps the cost to this week's documents.
	weekSuffix := pipeline.DocID("", week)
	err := predCol.Query(region, func(id string, body json.RawMessage) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !strings.HasSuffix(id, weekSuffix) {
			return nil
		}
		var pd predictionFields
		if err := jsonbody.Unmarshal(body, &pd); err != nil {
			return fmt.Errorf("scheduler: decode prediction %s: %w", id, err)
		}
		if pd.Week != week {
			return nil
		}
		d := Decision{
			ServerID:     pd.ServerID,
			Week:         week,
			BackupDay:    pd.BackupDay,
			WindowPoints: pd.WindowPoints,
			IntervalMin:  pd.IntervalMin,
			DefaultStart: pd.DefaultStart,
			PredLLStart:  pd.LLStart,
			Source:       SourceDefault,
			Start:        pd.DefaultStart,
		}
		// Predictability as of the previous completed week.
		var prev pipeline.EvalDoc
		if err := evalCol.Get(region, pipeline.DocID(pd.ServerID, week-1), &prev); err == nil && prev.Predictable {
			d.Source = SourcePredicted
			d.Start = pd.BackupDay.Add(time.Duration(pd.LLStart*pd.IntervalMin) * time.Minute)
		}
		decisions = append(decisions, d)
		s.Fabric.Set(Property{
			ServerID: d.ServerID,
			Start:    d.Start,
			Source:   d.Source,
			SetAt:    s.Clock.Now(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return decisions, nil
}

// Impact aggregates the Figure 13(a) accounting for a set of decisions.
type Impact struct {
	Decisions int // total scheduling decisions
	Scheduled int // decisions that used a predicted LL window
	Defaulted int // decisions that kept the default window

	// The three mutually exclusive buckets over scheduled servers:
	DefaultWasLL    int // default window already was an LL window
	Moved           int // moved into a correctly chosen LL window
	IncorrectWindow int // chosen LL window was not chosen correctly

	// Busy-server accounting (peak load above BusyThreshold):
	BusyServers      int
	CollisionAvoided int // default collided with peak activity, chosen window doesn't

	// ImprovedMinutes approximates the hours of improved customer experience:
	// backup minutes moved out of windows whose true load significantly
	// exceeded the optimum.
	ImprovedMinutes int
}

// PctDefaultWasLL returns the share of scheduled servers whose default was
// already an LL window (85.3% in the paper).
func (im Impact) PctDefaultWasLL() float64 { return pct(im.DefaultWasLL, im.Scheduled) }

// PctMoved returns the share of scheduled servers whose backup moved into a
// correctly chosen LL window (12.5% in the paper).
func (im Impact) PctMoved() float64 { return pct(im.Moved, im.Scheduled) }

// PctIncorrect returns the share of scheduled servers whose window was not
// chosen correctly (2.1% in the paper).
func (im Impact) PctIncorrect() float64 { return pct(im.IncorrectWindow, im.Scheduled) }

// PctCollisionsAvoided returns the share of busy servers whose backup no
// longer collides with peak activity (7.7% in the paper).
func (im Impact) PctCollisionsAvoided() float64 { return pct(im.CollisionAvoided, im.BusyServers) }

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// BusyThreshold is the busy-server cut of Figure 13(a): customer load over
// 60% of capacity.
const BusyThreshold = 60.0

// TrueDayFunc supplies the actual load of a server on its backup day; ok is
// false when actuals are unavailable (the server is skipped).
type TrueDayFunc func(serverID string, day time.Time) (timeseries.Series, bool)

// EvaluateImpact classifies every decision against the actual backup-day
// load, reproducing Figure 13(a)'s buckets.
func EvaluateImpact(decisions []Decision, trueDay TrueDayFunc, cfg metrics.Config) (Impact, error) {
	var im Impact
	for _, d := range decisions {
		actual, ok := trueDay(d.ServerID, d.BackupDay)
		if !ok {
			continue
		}
		im.Decisions++
		ppd := actual.PointsPerDay()
		w := d.WindowPoints
		if w < 1 || w > ppd {
			w = min(max(w, 1), ppd)
		}
		trueLL, err := metrics.LowestLoadWindow(actual, w)
		if err != nil {
			return im, fmt.Errorf("scheduler: impact for %s: %w", d.ServerID, err)
		}
		defaultIdx := clampWindowStart(offsetInDay(d.DefaultStart, d.BackupDay, actual.Interval), w, ppd)
		defaultAvg, err := actual.WindowMean(defaultIdx, w)
		if err != nil {
			return im, err
		}
		maxLoad, _ := actual.Max()
		busy := maxLoad > BusyThreshold
		if busy {
			im.BusyServers++
		}

		if d.Source == SourceDefault {
			im.Defaulted++
			continue
		}
		im.Scheduled++
		chosenIdx := clampWindowStart(offsetInDay(d.Start, d.BackupDay, actual.Interval), w, ppd)
		chosenAvg, err := actual.WindowMean(chosenIdx, w)
		if err != nil {
			return im, err
		}
		switch {
		case cfg.WindowBound.Contains(trueLL.AvgLoad, defaultAvg):
			// The default slot was already (within bound) a lowest-load
			// window; scheduling confirms it by chance.
			im.DefaultWasLL++
		case cfg.WindowBound.Contains(trueLL.AvgLoad, chosenAvg):
			im.Moved++
			im.ImprovedMinutes += w * int(actual.Interval/time.Minute)
		default:
			im.IncorrectWindow++
		}
		if busy && defaultAvg > BusyThreshold && cfg.WindowBound.Contains(trueLL.AvgLoad, chosenAvg) {
			im.CollisionAvoided++
		}
	}
	return im, nil
}

// offsetInDay converts an absolute window start into an observation index
// within the backup day.
func offsetInDay(start, dayMidnight time.Time, interval time.Duration) int {
	off := start.Sub(dayMidnight)
	if off < 0 {
		off = 0
	}
	return int(off / interval)
}

// clampWindowStart keeps a window of w observations inside a day of ppd
// observations (default windows near midnight would otherwise overflow).
func clampWindowStart(idx, w, ppd int) int {
	if idx+w > ppd {
		idx = ppd - w
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}
