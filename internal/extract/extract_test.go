package extract

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"seagull/internal/lake"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

func testFleet(t *testing.T, servers int) *simulate.Fleet {
	t.Helper()
	return simulate.GenerateFleet(simulate.Config{
		Region: "testregion", Servers: servers, Weeks: 2, Seed: 3,
	})
}

func testStore(t *testing.T) *lake.Store {
	t.Helper()
	s, err := lake.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExtractWeekRowCount(t *testing.T) {
	fleet := testFleet(t, 20)
	store := testStore(t)
	n, err := ExtractWeek(store, fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every server alive in week 0 contributes its in-week points.
	want := 0
	start, _ := fleet.Span()
	weekEnd := start.Add(7 * 24 * time.Hour)
	for _, srv := range fleet.Servers {
		want += srv.Load().Between(start, weekEnd).Len()
	}
	if n != want {
		t.Errorf("rows = %d, want %d", n, want)
	}
	if sz, err := store.Size(Dataset, "testregion", 0); err != nil || sz == 0 {
		t.Errorf("object size = %d err %v", sz, err)
	}
}

func TestExtractIngestRoundTrip(t *testing.T) {
	fleet := testFleet(t, 15)
	store := testStore(t)
	if _, err := ExtractWeek(store, fleet, 1); err != nil {
		t.Fatal(err)
	}
	loads, err := Ingest(store, "testregion", 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := fleet.Span()
	weekStart := start.Add(7 * 24 * time.Hour)
	weekEnd := weekStart.Add(7 * 24 * time.Hour)

	byID := map[string]*ServerLoad{}
	for _, sl := range loads {
		byID[sl.ServerID] = sl
	}
	for _, srv := range fleet.Servers {
		sub := srv.Load().Between(weekStart, weekEnd)
		sl, ok := byID[srv.ID]
		if sub.Len() == 0 {
			if ok {
				t.Errorf("%s absent in week but ingested", srv.ID)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s missing from ingest", srv.ID)
		}
		if sl.Load.Len() != sub.Len() {
			t.Fatalf("%s ingested %d points, want %d", srv.ID, sl.Load.Len(), sub.Len())
		}
		for i := range sub.Values {
			a, b := sub.Values[i], sl.Load.Values[i]
			if timeseries.IsMissing(a) != timeseries.IsMissing(b) {
				t.Fatalf("%s missing mismatch at %d", srv.ID, i)
			}
			if !timeseries.IsMissing(a) && abs(a-b) > 0.001 { // 3-decimal CSV precision
				t.Fatalf("%s value mismatch at %d: %v vs %v", srv.ID, i, a, b)
			}
		}
		if !sl.Load.Start.Equal(sub.Start) {
			t.Errorf("%s start %v, want %v", srv.ID, sl.Load.Start, sub.Start)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIngestBackupWindow(t *testing.T) {
	fleet := testFleet(t, 10)
	store := testStore(t)
	if _, err := ExtractWeek(store, fleet, 0); err != nil {
		t.Fatal(err)
	}
	loads, err := Ingest(store, "testregion", 0, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*simulate.Server{}
	for _, srv := range fleet.Servers {
		byID[srv.ID] = srv
	}
	for _, sl := range loads {
		srv := byID[sl.ServerID]
		if srv == nil {
			t.Fatalf("unknown server %s", sl.ServerID)
		}
		if got := sl.BackupEnd.Sub(sl.BackupStart); got != srv.BackupDuration {
			t.Errorf("%s backup duration %v, want %v", sl.ServerID, got, srv.BackupDuration)
		}
		if sl.BackupStart.Weekday() != srv.BackupDay {
			t.Errorf("%s backup day %v, want %v", sl.ServerID, sl.BackupStart.Weekday(), srv.BackupDay)
		}
		if wp := sl.WindowPoints(); wp != srv.WindowPoints() {
			t.Errorf("%s window points %d, want %d", sl.ServerID, wp, srv.WindowPoints())
		}
	}
}

func TestExtractMissingEncodedNegative(t *testing.T) {
	fleet := simulate.GenerateFleet(simulate.Config{
		Region: "gap", Servers: 10, Weeks: 1, Seed: 5, MissingRate: 0.05,
	})
	store := testStore(t)
	if _, err := ExtractWeek(store, fleet, 0); err != nil {
		t.Fatal(err)
	}
	loads, err := Ingest(store, "gap", 0, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, sl := range loads {
		missing += sl.Load.MissingCount()
	}
	if missing == 0 {
		t.Error("expected missing points to survive the round trip")
	}
}

func TestExtractAll(t *testing.T) {
	fleet := testFleet(t, 8)
	store := testStore(t)
	total, err := ExtractAll(store, fleet)
	if err != nil {
		t.Fatal(err)
	}
	weeks, err := store.Weeks(Dataset, "testregion")
	if err != nil || len(weeks) != 2 {
		t.Fatalf("weeks = %v err %v", weeks, err)
	}
	n0, _ := ExtractWeek(store, fleet, 0)
	n1, _ := ExtractWeek(store, fleet, 1)
	if total != n0+n1 {
		t.Errorf("total = %d, want %d", total, n0+n1)
	}
}

func TestIngestMissingObject(t *testing.T) {
	store := testStore(t)
	if _, err := Ingest(store, "ghost", 0, 5*time.Minute); err == nil {
		t.Error("missing extract should error")
	}
}

// referenceIngest is the placement Ingest used before it built series in
// place: collect every row's (time, value), then lay the values out on the
// grid of each server's earliest timestamp, later rows winning.
func referenceIngest(t *testing.T, data []byte, interval time.Duration) map[string]timeseries.Series {
	t.Helper()
	type acc struct {
		times []int64
		vals  []float64
	}
	by := map[string]*acc{}
	err := lake.ScanRows(bytes.NewReader(data), func(row lake.Row) error {
		a := by[row.ServerID]
		if a == nil {
			a = &acc{}
			by[row.ServerID] = a
		}
		v := row.CPUPct
		if v < 0 {
			v = timeseries.Missing
		}
		a.times, a.vals = append(a.times, row.TimestampMin), append(a.vals, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	step := int64(interval / time.Minute)
	out := map[string]timeseries.Series{}
	for id, a := range by {
		first, last := a.times[0], a.times[0]
		for _, ts := range a.times {
			first, last = min(first, ts), max(last, ts)
		}
		vals := make([]float64, (last-first)/step+1)
		for i := range vals {
			vals[i] = timeseries.Missing
		}
		for i, ts := range a.times {
			vals[(ts-first)/step] = a.vals[i]
		}
		out[id] = timeseries.New(time.Unix(first*60, 0).UTC(), interval, vals)
	}
	return out
}

// Ingest's in-place series match the old collect-then-place layout on
// shuffled, duplicated, gapped and off-grid files.
func TestIngestMatchesPlacementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := testStore(t)
	for trial := 0; trial < 300; trial++ {
		var rows []lake.Row
		for s := 0; s < 1+rng.Intn(3); s++ {
			base := int64(rng.Intn(1000))
			n := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				ts := base + int64(i*5)
				switch rng.Intn(8) {
				case 0:
					ts -= int64(rng.Intn(60)) // before the block's start, or a regression
				case 1:
					ts += int64(1 + rng.Intn(4)) // off the 5-minute grid
				case 2:
					ts += int64(5 * rng.Intn(10)) // gap or duplicate further on
				}
				rows = append(rows, lake.Row{ServerID: fmt.Sprintf("s%d", s), TimestampMin: ts,
					CPUPct: float64(rng.Intn(2000)-100) / 10, BackupStartMin: 10, BackupEndMin: 40})
			}
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		var buf bytes.Buffer
		if err := lake.WriteRows(&buf, rows); err != nil {
			t.Fatal(err)
		}
		w, err := store.Writer(Dataset, "ref", trial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := referenceIngest(t, buf.Bytes(), 5*time.Minute)
		loads, err := Ingest(store, "ref", trial, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(loads) != len(want) {
			t.Fatalf("trial %d: %d servers, want %d", trial, len(loads), len(want))
		}
		for _, sl := range loads {
			got, exp := sl.Load.Values, want[sl.ServerID].Values
			if !sl.Load.Start.Equal(want[sl.ServerID].Start) {
				t.Fatalf("trial %d %s: starts %v, want %v", trial, sl.ServerID, sl.Load.Start, want[sl.ServerID].Start)
			}
			if len(got) != len(exp) {
				t.Fatalf("trial %d %s: %d points, want %d", trial, sl.ServerID, len(got), len(exp))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
					t.Fatalf("trial %d %s point %d: %v, want %v", trial, sl.ServerID, i, got[i], exp[i])
				}
			}
		}
	}
}

// writeExtract publishes data as the extract of (region, week 0).
func writeExtract(t *testing.T, store *lake.Store, region, data string) {
	t.Helper()
	w, err := store.Writer(Dataset, region, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// One bad timestamp can no longer size a server's series: rows a week or
// more apart, shuffled or in order, are refused with an error naming the
// server and the extract, while a block just under a week still ingests.
func TestIngestRefusesRowsAWeekApart(t *testing.T) {
	store := testStore(t)
	h := lake.Header + "\n"
	for name, data := range map[string]string{
		"shuffled":    h + "srv,1000,1.000,0,10\nsrv,5,2.000,0,10\nsrv,999999999999999995,3.000,0,10\n",
		"in-order":    h + "srv,100,1.000,0,10\nsrv,10180,2.000,0,10\n",
		"extremes":    h + "srv,-9223372036854775808,1.000,0,10\nsrv,9223372036854775807,2.000,0,10\n",
		"before-grid": h + "srv,10080,1.000,0,10\nsrv,0,2.000,0,10\n",
	} {
		writeExtract(t, store, name, data)
		_, err := Ingest(store, name, 0, 5*time.Minute)
		if err == nil || !strings.Contains(err.Error(), `server "srv"`) ||
			!strings.Contains(err.Error(), "ingest "+name+" week 0") {
			t.Errorf("%s: err = %v, want a refusal naming the server and the extract", name, err)
		}
	}

	writeExtract(t, store, "just-under", h+"srv,100,1.000,0,10\nsrv,10175,2.000,0,10\n")
	loads, err := Ingest(store, "just-under", 0, 5*time.Minute)
	if err != nil || len(loads) != 1 || loads[0].Load.Len() != 7*24*12 {
		t.Fatalf("a week-long block: err %v, loads %v", err, loads)
	}
}

// An interval that is not a whole, positive number of minutes is refused
// before the extract is read, rather than dividing by a zero step.
func TestIngestRefusesBadInterval(t *testing.T) {
	store := testStore(t)
	writeExtract(t, store, "r", lake.Header+"\nsrv,100,1.000,0,10\nsrv,101,2.000,0,10\n")
	for _, interval := range []time.Duration{0, -5 * time.Minute, 30 * time.Second, 90 * time.Second} {
		if _, err := Ingest(store, "r", 0, interval); err == nil || !strings.Contains(err.Error(), "whole, positive number of minutes") {
			t.Errorf("interval %v: err = %v, want a refusal", interval, err)
		}
	}
	if _, err := Ingest(store, "r", 0, time.Minute); err != nil {
		t.Errorf("one-minute interval: %v", err)
	}
}

func BenchmarkExtractWeek(b *testing.B) {
	fleet := simulate.GenerateFleet(simulate.Config{Region: "bench", Servers: 16, Weeks: 2, Seed: 3})
	store, err := lake.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractWeek(store, fleet, 1); err != nil {
			b.Fatal(err)
		}
	}
}
