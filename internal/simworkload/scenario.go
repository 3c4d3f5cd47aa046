// Package simworkload is Seagull's scenario engine: seeded, deterministic
// fleet workloads with scheduled events — burst storms, maintenance windows,
// regional failover, drift injection — layered on internal/simulate's
// synthetic telemetry and driven against a full serving system on a
// simulated clock (internal/simclock) by the Run harness.
//
// A Scenario is a small declarative config (Go struct, JSON-encodable) that
// fully determines the workload: the same scenario and seed produce a
// bit-identical timeline, which the harness's determinism tests pin. Wall
// clock only enters through measured request latencies, which are reported
// separately in the SLO report and excluded from the timeline.
package simworkload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Event types.
const (
	// EventBurstStorm multiplies the affected servers' reported load and
	// the predict request rate by Magnitude while active — the overload
	// pattern the admission layer exists for.
	EventBurstStorm = "burst-storm"
	// EventMaintenance silences the affected servers' telemetry while
	// active (a patch window: hosts rebooting, agents down).
	EventMaintenance = "maintenance"
	// EventFailover silences the event's Region entirely and multiplies
	// every other region's load and predict traffic by Magnitude — traffic
	// shifted to the surviving regions.
	EventFailover = "failover"
	// EventDrift adds Magnitude (absolute load points, the equivalence
	// tests' perturbation) to the affected servers' reported load while
	// active, invalidating their stored predictions so the sweeper →
	// refresher loop has real work.
	EventDrift = "drift"
)

// Event is one scheduled disturbance of the steady-state workload.
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Region filters the event to one region; empty means all regions
	// (required for failover, where it names the region that goes dark).
	Region string `json:"region,omitempty"`
	// AtHour is the event start, in simulated hours from the start of the
	// live replay.
	AtHour float64 `json:"at_hour"`
	// DurationHours is how long the event lasts; 0 means until the end of
	// the scenario (a persistent shift, the usual choice for drift).
	DurationHours float64 `json:"duration_hours,omitempty"`
	// Magnitude is the event's strength: load/traffic multiplier for
	// burst-storm and failover, absolute load delta for drift. Ignored for
	// maintenance.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Fraction of each affected region's servers the event touches, in
	// (0, 1]; 0 means 1 (everyone). The affected set is the deterministic
	// leading fraction of the fleet's server list.
	Fraction float64 `json:"fraction,omitempty"`
}

// active reports whether the event covers the instant h hours into the
// replay.
func (e Event) active(h float64) bool {
	if h < e.AtHour {
		return false
	}
	return e.DurationHours <= 0 || h < e.AtHour+e.DurationHours
}

// RegionSpec sizes one region's fleet.
type RegionSpec struct {
	Name    string `json:"name"`
	Servers int    `json:"servers"`
}

// Scenario fully describes one simulation: fleet shape, warmup, replay
// length, maintenance cadences, request load and scheduled events.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every random draw (fleet generation per region uses
	// Seed + region index). Same scenario + seed → bit-identical timeline.
	Seed int64 `json:"seed"`
	// Regions are the simulated fleets; at least one.
	Regions []RegionSpec `json:"regions"`
	// HistoryWeeks is the batch-pipeline warmup: that many weeks of
	// telemetry are extracted to the lake and run through the weekly
	// pipeline before the live replay starts. Minimum 2. The live replay
	// then re-streams the final warmup week's telemetry (with event
	// perturbations) as live ingest — the equivalence tests' replay
	// semantics. A shadow, unperturbed copy of the stream runs alongside as
	// the counterfactual baseline for drift-lag measurement, so the model's
	// natural drift does not count as event detection.
	HistoryWeeks int `json:"history_weeks"`
	// Hours is the live-replay length in simulated hours.
	Hours float64 `json:"hours"`
	// PredictsPerHour is the baseline predict request rate across the
	// fleet, shaped by a diurnal factor and multiplied by active
	// burst-storm/failover events. Default 120.
	PredictsPerHour int `json:"predicts_per_hour,omitempty"`
	// SweepEvery is the background drift-sweep cadence in simulated
	// minutes. Default 60.
	SweepEveryMinutes int `json:"sweep_every_minutes,omitempty"`
	// Replicas shards the serving layer: that many replicas, each owning a
	// consistent-hash shard of server IDs (its own ingest rings, drift
	// detector, refresher, sweeper and namespaced WAL/snapshots), behind a
	// stateless router the harness client talks to. Default 1 — the
	// single-process system, with no router hop. Routing is deterministic
	// per seed, so sharded timelines are bit-identical across runs too.
	Replicas int `json:"replicas,omitempty"`
	// Events are the scheduled disturbances, in any order.
	Events []Event `json:"events,omitempty"`
}

func (sc Scenario) withDefaults() Scenario {
	if sc.PredictsPerHour <= 0 {
		sc.PredictsPerHour = 120
	}
	if sc.SweepEveryMinutes <= 0 {
		sc.SweepEveryMinutes = 60
	}
	if sc.Replicas <= 0 {
		sc.Replicas = 1
	}
	return sc
}

// Validate rejects scenarios the harness cannot run deterministically.
func (sc Scenario) Validate() error {
	if len(sc.Regions) == 0 {
		return fmt.Errorf("simworkload: scenario %q has no regions", sc.Name)
	}
	for _, r := range sc.Regions {
		if r.Name == "" || r.Servers <= 0 {
			return fmt.Errorf("simworkload: region %+v needs a name and a positive server count", r)
		}
	}
	if sc.HistoryWeeks < 2 {
		return fmt.Errorf("simworkload: history_weeks = %d, need ≥ 2 (one week to prefeed the live window, one to train)", sc.HistoryWeeks)
	}
	if sc.Hours <= 0 {
		return fmt.Errorf("simworkload: hours = %v, need > 0", sc.Hours)
	}
	for i, e := range sc.Events {
		switch e.Type {
		case EventBurstStorm, EventFailover:
			if e.Magnitude <= 0 {
				return fmt.Errorf("simworkload: event %d (%s) needs a positive magnitude", i, e.Type)
			}
		case EventDrift:
			if e.Magnitude == 0 {
				return fmt.Errorf("simworkload: event %d (drift) needs a non-zero magnitude", i)
			}
		case EventMaintenance:
		default:
			return fmt.Errorf("simworkload: event %d has unknown type %q", i, e.Type)
		}
		if e.Type == EventFailover && e.Region == "" {
			return fmt.Errorf("simworkload: event %d (failover) must name the failing region", i)
		}
		if e.AtHour < 0 || e.Fraction < 0 || e.Fraction > 1 {
			return fmt.Errorf("simworkload: event %d has at_hour %v / fraction %v out of range", i, e.AtHour, e.Fraction)
		}
	}
	return nil
}

// LoadScenario reads and validates a scenario JSON file. A key the Scenario
// does not define is an error, so a file that sets a removed or misspelled
// setting fails instead of running without it.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("simworkload: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("simworkload: parse %s: data after the scenario object", path)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Builtin returns the named built-in scenario, or ok=false. Names:
//
//   - "smoke": one small region, six simulated hours with a burst storm and
//     a drift injection — the CI smoke scenario (seconds of wall clock).
//   - "burst-drift-36h": the acceptance scenario — 36 simulated hours over
//     96 servers with a 3× burst storm, a persistent drift injection and a
//     maintenance window.
//   - "failover-48h": two regions, 48 simulated hours; region "east" goes
//     dark at hour 12 and "west" absorbs 1.8× traffic for six hours.
//   - "sharded-12h": the scale-out scenario — 64 servers consistent-hash
//     sharded across 4 replicas behind the router, 12 simulated hours with a
//     burst storm and a drift injection crossing shard boundaries.
func Builtin(name string) (Scenario, bool) {
	switch name {
	case "smoke":
		return Scenario{
			Name: "smoke", Seed: 1,
			Regions:      []RegionSpec{{Name: "west", Servers: 24}},
			HistoryWeeks: 2, Hours: 6,
			PredictsPerHour:   240,
			SweepEveryMinutes: 30,
			Events: []Event{
				{Type: EventBurstStorm, AtHour: 1, DurationHours: 1.5, Magnitude: 3, Fraction: 0.5},
				{Type: EventDrift, AtHour: 2.5, Magnitude: 35, Fraction: 0.75},
			},
		}, true
	case "burst-drift-36h":
		return Scenario{
			Name: "burst-drift-36h", Seed: 7,
			Regions:      []RegionSpec{{Name: "west", Servers: 96}},
			HistoryWeeks: 2, Hours: 36,
			PredictsPerHour:   600,
			SweepEveryMinutes: 60,
			Events: []Event{
				{Type: EventBurstStorm, AtHour: 6, DurationHours: 4, Magnitude: 3, Fraction: 0.5},
				{Type: EventDrift, AtHour: 12, Magnitude: 35, Fraction: 0.25},
				{Type: EventMaintenance, AtHour: 20, DurationHours: 2, Fraction: 0.2},
			},
		}, true
	case "failover-48h":
		return Scenario{
			Name: "failover-48h", Seed: 11,
			Regions:      []RegionSpec{{Name: "east", Servers: 48}, {Name: "west", Servers: 48}},
			HistoryWeeks: 2, Hours: 48,
			PredictsPerHour:   480,
			SweepEveryMinutes: 60,
			Events: []Event{
				{Type: EventFailover, Region: "east", AtHour: 12, DurationHours: 6, Magnitude: 1.8},
			},
		}, true
	case "sharded-12h":
		return Scenario{
			Name: "sharded-12h", Seed: 17,
			Regions:      []RegionSpec{{Name: "west", Servers: 64}},
			HistoryWeeks: 2, Hours: 12,
			PredictsPerHour:   360,
			SweepEveryMinutes: 60,
			Replicas:          4,
			Events: []Event{
				{Type: EventBurstStorm, AtHour: 2, DurationHours: 2, Magnitude: 3, Fraction: 0.5},
				{Type: EventDrift, AtHour: 5, Magnitude: 35, Fraction: 0.5},
			},
		}, true
	}
	return Scenario{}, false
}

// BuiltinNames lists the built-in scenarios in display order.
func BuiltinNames() []string {
	return []string{"smoke", "burst-drift-36h", "failover-48h", "sharded-12h"}
}
