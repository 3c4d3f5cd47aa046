// Package validate implements Seagull's Data Validation module (Section 2.2):
// detection of schema and bound anomalies — the rules of Breck et al. the
// paper cites — against the fixed DefaultSchema, plus per-server telemetry
// quality checks (gaps, duplicates, coverage). The paper's schema deduction
// and expert-verified schema files (Section 2.4) are not reproduced.
//
// The row checks run as a RowChecker on a scan: the pipeline hands it the
// rows of the same read that ingests the week (extract.IngestVisit), so a
// validated extract trains on exactly the bytes that were checked;
// ValidateRows is that checker over a scan of its own.
//
// Concurrency: validation keeps no shared state and is safe to run
// concurrently per (region, week); a RowChecker belongs to one scan, and
// reports are plain values. Validation never mutates its input.
package validate

import (
	"fmt"
	"io"
	"math"

	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/timeseries"
)

// Schema captures the data properties of an extract dataset that rows are
// checked against: the expected header, the CPU bounds, the encoding of a
// missing point and the tolerated share of missing points.
type Schema struct {
	Header string
	MinCPU float64
	MaxCPU float64
	// MissingSentinel is the encoding of missing observations (< 0 CPU).
	MissingSentinel float64
	// MaxMissingRatio is the tolerated per-server share of missing points.
	MaxMissingRatio float64
}

// DefaultSchema returns the production schema for the backup-scheduling
// extracts: CPU percentages in [0,100] with -1 as the missing sentinel, and
// at most 20% missing points per server.
func DefaultSchema() Schema {
	return Schema{
		Header:          lake.Header,
		MinCPU:          0,
		MaxCPU:          100,
		MissingSentinel: -1,
		MaxMissingRatio: 0.2,
	}
}

// AnomalyKind classifies a detected problem.
type AnomalyKind string

// Anomaly kinds detected by the validator.
const (
	KindSchema    AnomalyKind = "schema"    // malformed row / wrong header
	KindBound     AnomalyKind = "bound"     // value outside schema bounds
	KindDuplicate AnomalyKind = "duplicate" // repeated (server, timestamp)
	KindGap       AnomalyKind = "gap"       // per-server missing data above threshold
	KindOrder     AnomalyKind = "order"     // timestamps regress within a server block
	KindEmpty     AnomalyKind = "empty"     // no data at all
	KindCoverage  AnomalyKind = "coverage"  // server span shorter than the week
)

// Anomaly is one detected data problem.
type Anomaly struct {
	Kind     AnomalyKind
	ServerID string
	Detail   string
}

func (a Anomaly) String() string {
	if a.ServerID == "" {
		return fmt.Sprintf("[%s] %s", a.Kind, a.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", a.Kind, a.ServerID, a.Detail)
}

// Report is the outcome of validating one weekly extract.
type Report struct {
	Rows      int
	Servers   int
	Anomalies []Anomaly
	// Valid means no anomalies severe enough to halt the pipeline; the
	// incident-management module alerts on !Valid (Section 2.2).
	Valid bool
}

// maxAnomalies caps the anomaly list so a corrupt file cannot blow up the
// report (the count still reflects reality via Truncated).
const maxAnomalies = 100

func (r *Report) add(a Anomaly) {
	if len(r.Anomalies) < maxAnomalies {
		r.Anomalies = append(r.Anomalies, a)
	}
}

// ValidateRows checks one extract stream against the schema: header, field
// bounds, per-server duplicate timestamps and ordering. It is one scan
// feeding a RowChecker.
func ValidateRows(rd io.Reader, schema Schema) (*Report, error) {
	c := NewRowChecker(schema)
	err := lake.ScanRows(rd, func(row lake.Row) error {
		c.Check(row)
		return nil
	})
	return c.Finish(err), nil
}

// RowChecker checks extract rows against a schema as a scan delivers them,
// so the read that ingests an extract can also validate it.
type RowChecker struct {
	schema    Schema
	rep       Report
	curServer string
	lastTS    int64
	seen      map[string]bool // servers completed (detects interleaving)
}

// NewRowChecker returns a checker with an empty report.
func NewRowChecker(schema Schema) *RowChecker {
	return &RowChecker{schema: schema, seen: map[string]bool{}}
}

// Check applies the per-row checks to the next row of the scan.
func (c *RowChecker) Check(row lake.Row) {
	s, rep := &c.schema, &c.rep
	rep.Rows++
	if row.ServerID == "" {
		rep.add(Anomaly{Kind: KindSchema, Detail: "empty server id"})
	}
	// Written so that NaN, which no comparison admits, is out of bounds.
	if row.CPUPct != s.MissingSentinel && !(row.CPUPct >= s.MinCPU && row.CPUPct <= s.MaxCPU) {
		rep.add(Anomaly{Kind: KindBound, ServerID: row.ServerID,
			Detail: fmt.Sprintf("cpu %.3f outside [%.1f,%.1f]", row.CPUPct, s.MinCPU, s.MaxCPU)})
	}
	if row.ServerID != c.curServer {
		if c.seen[row.ServerID] {
			rep.add(Anomaly{Kind: KindOrder, ServerID: row.ServerID,
				Detail: "server block interleaved"})
		}
		if c.curServer != "" {
			c.seen[c.curServer] = true
		}
		c.curServer = row.ServerID
		rep.Servers++
		c.lastTS = row.TimestampMin
		return
	}
	if row.TimestampMin == c.lastTS {
		rep.add(Anomaly{Kind: KindDuplicate, ServerID: row.ServerID,
			Detail: fmt.Sprintf("duplicate timestamp %d", row.TimestampMin)})
	} else if row.TimestampMin < c.lastTS {
		rep.add(Anomaly{Kind: KindOrder, ServerID: row.ServerID,
			Detail: fmt.Sprintf("timestamp %d after %d", row.TimestampMin, c.lastTS)})
	}
	c.lastTS = row.TimestampMin
}

// Finish closes the check and returns its report. scanErr is the scan's own
// error, if any.
func (c *RowChecker) Finish(scanErr error) *Report {
	rep := &c.rep
	if scanErr != nil {
		// A malformed row is a schema anomaly, not a hard error: record it so
		// the incident manager can alert with context.
		rep.add(Anomaly{Kind: KindSchema, Detail: scanErr.Error()})
	}
	if rep.Rows == 0 {
		rep.add(Anomaly{Kind: KindEmpty, Detail: "extract contains no rows"})
	}
	rep.Valid = len(rep.Anomalies) == 0
	return rep
}

// ValidateLoads checks ingested per-server series: missing-data ratio,
// physically impossible values and sub-week coverage. weekPoints is the
// expected number of observations for a full week at the dataset interval.
func ValidateLoads(loads []*extract.ServerLoad, schema Schema, weekPoints int) *Report {
	rep := &Report{Servers: len(loads)}
	for _, sl := range loads {
		rep.Rows += sl.Load.Len()
		n := sl.Load.Len()
		if n == 0 {
			rep.add(Anomaly{Kind: KindEmpty, ServerID: sl.ServerID, Detail: "no observations"})
			continue
		}
		missing := sl.Load.MissingCount()
		if ratio := float64(missing) / float64(n); ratio > schema.MaxMissingRatio {
			rep.add(Anomaly{Kind: KindGap, ServerID: sl.ServerID,
				Detail: fmt.Sprintf("%.1f%% missing exceeds %.1f%%", 100*ratio, 100*schema.MaxMissingRatio)})
		}
		for _, v := range sl.Load.Values {
			if timeseries.IsMissing(v) {
				continue
			}
			if v < schema.MinCPU || v > schema.MaxCPU || math.IsInf(v, 0) {
				rep.add(Anomaly{Kind: KindBound, ServerID: sl.ServerID,
					Detail: fmt.Sprintf("load %.3f outside [%.1f,%.1f]", v, schema.MinCPU, schema.MaxCPU)})
				break
			}
		}
		if weekPoints > 0 && n < weekPoints && n >= weekPoints/7 {
			// Partial coverage is expected for servers created or deleted
			// mid-week; only note it (it feeds the lifespan feature).
			rep.add(Anomaly{Kind: KindCoverage, ServerID: sl.ServerID,
				Detail: fmt.Sprintf("%d of %d expected points", n, weekPoints)})
		}
	}
	// Coverage notes do not invalidate a batch; anything else does.
	rep.Valid = true
	for _, a := range rep.Anomalies {
		if a.Kind != KindCoverage {
			rep.Valid = false
			break
		}
	}
	return rep
}
