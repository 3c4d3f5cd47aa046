// Package extract implements Seagull's Load Extraction module (Section 2.2):
// "a recurring query that extracts relevant data from raw production
// telemetry and stores this data in Azure Data Lake Store". Here the raw
// telemetry is the simulated fleet; the extraction writes one CSV object per
// region per week into the lake, and the ingestion side reads such an object
// back into per-server series for the pipeline — in one scan that builds
// each server's series in place and can hand every row to a visitor (the
// pipeline's row validation) on the way.
//
// Concurrency: extraction and ingestion are stateless functions over the
// lake; distinct (region, week) objects may be processed concurrently.
// Equivalence: extract → ingest round-trips a fleet's telemetry exactly (the
// CSV codec is lossless for the paper's value precision), so the pipeline
// sees the same series the simulator generated.
package extract

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"seagull/internal/lake"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// Dataset is the lake dataset name for backup-scheduling extracts.
const Dataset = "pgmysql-load"

// ExtractWeek runs the weekly extraction query for one fleet: it selects all
// telemetry falling inside week (0-based from the fleet start) and writes it
// to the lake partition for (fleet region, week). It returns the number of
// rows written.
//
// Rows are ordered by server then time, which is how the production query
// clusters its output.
func ExtractWeek(store *lake.Store, fleet *simulate.Fleet, week int) (int, error) {
	start, _ := fleet.Span()
	weekStart := start.Add(time.Duration(week) * 7 * 24 * time.Hour)
	weekEnd := weekStart.Add(7 * 24 * time.Hour)

	w, err := store.Writer(Dataset, fleet.Config.Region, week)
	if err != nil {
		return 0, err
	}
	defer w.Abort() // a failed extraction publishes nothing; a no-op after Close

	if _, err := fmt.Fprintln(w, lake.Header); err != nil {
		return 0, err
	}
	rows := 0
	buf := make([]byte, 0, 96)
	for _, srv := range fleet.Servers {
		sub := srv.Load().Between(weekStart, weekEnd)
		if sub.Len() == 0 {
			continue
		}
		// The default backup window of the server on its backup day within
		// this week.
		backupDayStart := weekStart.Add(time.Duration((int(srv.BackupDay)-int(weekStart.Weekday())+7)%7) * 24 * time.Hour)
		bStart := backupDayStart.Add(srv.DefaultBackupStart)
		bEnd := bStart.Add(srv.BackupDuration)
		for i := 0; i < sub.Len(); i++ {
			v := sub.Values[i]
			if timeseries.IsMissing(v) {
				v = -1 // missing encodes as negative in the extract format
			}
			r := lake.Row{
				ServerID:       srv.ID,
				TimestampMin:   sub.TimeAt(i).Unix() / 60,
				CPUPct:         v,
				BackupStartMin: bStart.Unix() / 60,
				BackupEndMin:   bEnd.Unix() / 60,
			}
			buf = lake.AppendRow(buf[:0], &r)
			if _, err := w.Write(buf); err != nil {
				return rows, err
			}
			rows++
		}
	}
	if err := w.Close(); err != nil {
		return rows, err
	}
	return rows, nil
}

// ExtractAll runs ExtractWeek for every whole week of the fleet span and
// returns the total rows written.
func ExtractAll(store *lake.Store, fleet *simulate.Fleet) (int, error) {
	total := 0
	for week := 0; week < fleet.Config.Weeks; week++ {
		n, err := ExtractWeek(store, fleet, week)
		if err != nil {
			return total, fmt.Errorf("extract week %d: %w", week, err)
		}
		total += n
	}
	return total, nil
}

// ServerLoad is the ingested telemetry of one server for one week.
type ServerLoad struct {
	ServerID string
	Load     timeseries.Series
	// BackupStart/BackupEnd delimit the server's default backup window.
	BackupStart time.Time
	BackupEnd   time.Time
}

// WindowPoints returns the server's backup duration in observations.
func (s *ServerLoad) WindowPoints() int {
	if s.Load.Interval <= 0 {
		return 0
	}
	n := int(s.BackupEnd.Sub(s.BackupStart) / s.Load.Interval)
	if n < 1 {
		n = 1
	}
	return n
}

// Ingest reads one weekly extract back into per-server series, sorted by
// server id. Interval is the telemetry granularity of the dataset (5 minutes
// for PostgreSQL/MySQL servers). Negative CPU readings become missing points.
func Ingest(store *lake.Store, region string, week int, interval time.Duration) ([]*ServerLoad, error) {
	return IngestVisit(store, region, week, interval, nil)
}

// IngestVisit is Ingest that also hands every row of its one scan, in file
// order, to visit (when non-nil) — how Data Validation checks the rows of
// the extract the pipeline trains on without reading it a second time.
//
// Interval must be a whole, positive number of minutes, and a server's rows
// must lie within less than a week of each other, as the rows of one weekly
// extract do; a file breaking that is refused with an error, so one bad
// timestamp cannot size a server's series beyond a week of points.
func IngestVisit(store *lake.Store, region string, week int, interval time.Duration, visit func(lake.Row)) ([]*ServerLoad, error) {
	r, err := store.Reader(Dataset, region, week)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return IngestReader(r, region, week, interval, visit)
}

// IngestReader is IngestVisit over an extract the caller has opened; region
// and week only name it in errors.
func IngestReader(r io.Reader, region string, week int, interval time.Duration, visit func(lake.Row)) ([]*ServerLoad, error) {
	loads, _, err := ingest(r, region, week, interval, visit, false)
	return loads, err
}

// IngestCompact is IngestReader for a week that is to be kept: it decodes
// each server straight into exact int32 thousandths wherever the extract's
// digits give them (lake.ScanRowsMilli), with MissingMilli for a missing
// point. For such a server milli[i] holds the values and loads[i].Load.Values
// is nil. A server with a value that has no such form — -0, a fourth decimal
// that is not zero, a row off ScanRows's fast path — or with a row off its
// grid comes back as IngestReader gives it, with milli[i] nil; either way
// ExpandMilli gives back the bits IngestReader would.
func IngestCompact(r io.Reader, region string, week int, interval time.Duration, visit func(lake.Row)) ([]*ServerLoad, [][]int32, error) {
	return ingest(r, region, week, interval, visit, true)
}

// MissingMilli stands for timeseries.Missing in thousandths; no value
// decodes to it.
const MissingMilli = math.MinInt32

// ExpandMilli returns the value m thousandths stand for.
func ExpandMilli(m int32) float64 {
	if m == MissingMilli {
		return timeseries.Missing
	}
	return float64(m) / 1000
}

func ingest(r io.Reader, region string, week int, interval time.Duration, visit func(lake.Row), compact bool) ([]*ServerLoad, [][]int32, error) {
	if interval <= 0 || interval%time.Minute != 0 {
		return nil, nil, fmt.Errorf("extract: ingest %s week %d: interval %v is not a whole, positive number of minutes", region, week, interval)
	}
	step := int64(interval / time.Minute)
	weekPoints := int(weekMinutes / step)
	byServer := map[string]*serverAcc{}
	var cur *serverAcc
	err := lake.ScanRowsMilli(r, func(row lake.Row, milli int32, exact bool) error {
		if visit != nil {
			visit(row)
		}
		if cur == nil || cur.sl.ServerID != row.ServerID {
			if cur = byServer[row.ServerID]; cur == nil {
				cur = &serverAcc{
					sl: &ServerLoad{
						ServerID:    row.ServerID,
						BackupStart: time.Unix(row.BackupStartMin*60, 0).UTC(),
						BackupEnd:   time.Unix(row.BackupEndMin*60, 0).UTC(),
					},
					first: row.TimestampMin,
					lo:    row.TimestampMin,
					hi:    row.TimestampMin,
				}
				if compact {
					cur.milli = make([]int32, 0, weekPoints)
				} else {
					cur.vals = make([]float64, 0, weekPoints)
				}
				byServer[row.ServerID] = cur
			}
		}
		v := row.CPUPct
		if v < 0 {
			v, milli, exact = timeseries.Missing, MissingMilli, true
		}
		return cur.add(row.TimestampMin, v, milli, exact, step)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("extract: ingest %s week %d: %w", region, week, err)
	}

	accs := make([]*serverAcc, 0, len(byServer))
	for _, a := range byServer {
		if a.times != nil {
			a.place(step)
		}
		a.sl.Load = timeseries.New(time.Unix(a.first*60, 0).UTC(), interval, a.vals)
		accs = append(accs, a)
	}
	sort.Slice(accs, func(i, j int) bool { return accs[i].sl.ServerID < accs[j].sl.ServerID })
	loads := make([]*ServerLoad, len(accs))
	var milli [][]int32
	if compact {
		milli = make([][]int32, len(accs))
	}
	for i, a := range accs {
		loads[i] = a.sl
		if compact {
			milli[i] = a.milli
		}
	}
	return loads, milli, nil
}

// weekMinutes is the length of one weekly extract in minutes.
const weekMinutes = 7 * 24 * 60

// serverAcc builds one server's series as its rows arrive.
type serverAcc struct {
	sl     *ServerLoad
	first  int64 // timestamp of the series' first point
	lo, hi int64 // the earliest and latest timestamps seen
	// The series is milli while every value has come as exact thousandths
	// (compact ingests only) and vals otherwise: the first value without
	// them, or the first row off the grid, expands milli into vals.
	milli []int32
	vals  []float64
	// times is nil while every row lands on the grid at or after the
	// server's first row, which is how ExtractWeek writes; the series is
	// then laid out on that grid. The first row before that or off the grid
	// turns vals into (times[i], vals[i]) pairs for place.
	times []int64
}

// add records one observation, v or, when exact, m thousandths; later rows
// for the same slot win. It refuses a row a week or more away from another
// of the server's rows, which bounds both the series and place's grid to a
// week of points.
func (a *serverAcc) add(t int64, v float64, m int32, exact bool, step int64) error {
	lo, hi := min(a.lo, t), max(a.hi, t)
	if uint64(hi-lo) >= weekMinutes { // hi-lo wraps, but as a uint64 it is exact
		return fmt.Errorf("server %q: rows at minutes %d and %d are a week or more apart", a.sl.ServerID, lo, hi)
	}
	a.lo, a.hi = lo, hi
	if a.times == nil {
		if d := t - a.first; d >= 0 && d%step == 0 {
			i := int(d / step)
			if a.vals == nil && exact {
				for len(a.milli) <= i {
					a.milli = append(a.milli, MissingMilli)
				}
				a.milli[i] = m
				return nil
			}
			a.expand()
			for len(a.vals) <= i {
				a.vals = append(a.vals, timeseries.Missing)
			}
			a.vals[i] = v
			return nil
		}
		// Every slot becomes a pair, gaps included: a gap's Missing pair
		// precedes all later rows, so it can be overwritten but never
		// overwrites.
		a.expand()
		a.times = make([]int64, len(a.vals))
		for i := range a.times {
			a.times[i] = a.first + int64(i)*step
		}
	}
	a.times = append(a.times, t)
	a.vals = append(a.vals, v)
	return nil
}

// expand turns a compact series into float64 values.
func (a *serverAcc) expand() {
	if a.vals != nil {
		return
	}
	a.vals = make([]float64, len(a.milli), cap(a.milli))
	for i, m := range a.milli {
		a.vals[i] = ExpandMilli(m)
	}
	a.milli = nil
}

// place lays the (time, value) pairs of a shuffled or off-grid file out on
// the grid of the server's earliest timestamp, later rows winning.
func (a *serverAcc) place(step int64) {
	first := a.lo
	vals := make([]float64, int((a.hi-first)/step)+1)
	for i := range vals {
		vals[i] = timeseries.Missing
	}
	for i, t := range a.times {
		vals[(t-first)/step] = a.vals[i]
	}
	a.first, a.vals, a.times = first, vals, nil
}
