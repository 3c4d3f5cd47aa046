// Package insights is the Application Insights analog (Section 2.2): it
// records pipeline run telemetry, aggregates it into the dashboard summary
// the paper's on-call engineers watch, and raises incidents for the
// conditions the paper lists — "missing or invalid input data, errors or
// exceptions in any step of the pipeline, and failed model deployment".
//
// Concurrency: the Dashboard is safe for concurrent use; recorders and
// summarizers may run from pipeline goroutines and HTTP handlers at once.
package insights

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Severity of an incident.
type Severity string

// Incident severities.
const (
	SevWarning  Severity = "warning"
	SevError    Severity = "error"
	SevCritical Severity = "critical"
)

// Incident is one alert raised by the pipeline.
type Incident struct {
	At       time.Time
	Severity Severity
	Region   string
	Stage    string
	Message  string
}

func (i Incident) String() string {
	return fmt.Sprintf("%s [%s] %s/%s: %s",
		i.At.Format(time.RFC3339), i.Severity, i.Region, i.Stage, i.Message)
}

// StageTiming is the recorded duration of one pipeline stage in one run.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// RunRecord is the telemetry of one pipeline run.
type RunRecord struct {
	Region    string
	Week      int
	StartedAt time.Time
	Total     time.Duration
	Stages    []StageTiming
	Rows      int
	Servers   int
	Succeeded bool
	Error     string
}

// Dashboard aggregates run records and incidents. Safe for concurrent use.
type Dashboard struct {
	mu        sync.RWMutex
	runs      []RunRecord
	incidents []Incident
	clock     func() time.Time
}

// New returns an empty dashboard. clock may be nil for wall time.
func New(clock func() time.Time) *Dashboard {
	if clock == nil {
		clock = time.Now
	}
	return &Dashboard{clock: clock}
}

// RecordRun appends one pipeline run record.
func (d *Dashboard) RecordRun(r RunRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.runs = append(d.runs, r)
}

// Raise records an incident.
func (d *Dashboard) Raise(sev Severity, region, stage, format string, args ...any) {
	inc := Incident{
		At:       d.clock(),
		Severity: sev,
		Region:   region,
		Stage:    stage,
		Message:  fmt.Sprintf(format, args...),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.incidents = append(d.incidents, inc)
}

// Incidents returns all raised incidents, oldest first.
func (d *Dashboard) Incidents() []Incident {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Incident(nil), d.incidents...)
}

// Runs returns all run records, oldest first.
func (d *Dashboard) Runs() []RunRecord {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]RunRecord(nil), d.runs...)
}

// Summary is the dashboard's aggregated view.
type Summary struct {
	Runs        int
	Succeeded   int
	Failed      int
	Incidents   map[Severity]int
	MeanRuntime time.Duration
	// StageMeans is the average duration per stage across successful runs,
	// the series behind the Figure 12(a)-style component view.
	StageMeans map[string]time.Duration
	Regions    []string
}

// Summarize computes the dashboard aggregates.
func (d *Dashboard) Summarize() Summary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Summary{
		Incidents:  map[Severity]int{},
		StageMeans: map[string]time.Duration{},
	}
	regions := map[string]bool{}
	var total time.Duration
	stageTotals := map[string]time.Duration{}
	stageCounts := map[string]int{}
	for _, r := range d.runs {
		s.Runs++
		if r.Succeeded {
			s.Succeeded++
		} else {
			s.Failed++
		}
		total += r.Total
		regions[r.Region] = true
		for _, st := range r.Stages {
			stageTotals[st.Stage] += st.Duration
			stageCounts[st.Stage]++
		}
	}
	for _, inc := range d.incidents {
		s.Incidents[inc.Severity]++
	}
	if s.Runs > 0 {
		s.MeanRuntime = total / time.Duration(s.Runs)
	}
	for stage, tot := range stageTotals {
		s.StageMeans[stage] = tot / time.Duration(stageCounts[stage])
	}
	for r := range regions {
		s.Regions = append(s.Regions, r)
	}
	sort.Strings(s.Regions)
	return s
}
