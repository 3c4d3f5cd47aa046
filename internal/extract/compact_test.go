package extract

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"seagull/internal/lake"
)

// ingestBoth ingests data as floats and compact.
func ingestBoth(data string) (floats, loads []*ServerLoad, milli [][]int32, floatErr, err error) {
	floats, floatErr = IngestReader(strings.NewReader(data), "r", 0, 5*time.Minute, nil)
	loads, milli, err = IngestCompact(strings.NewReader(data), "r", 0, 5*time.Minute, nil)
	return
}

// FuzzIngestCompact checks that a compact ingest gives back, server for
// server, the bits IngestReader gives, and its error: a compact server's
// thousandths expand to them, and any other server carries them itself.
func FuzzIngestCompact(f *testing.F) {
	h := lake.Header + "\n"
	f.Add(h + "a,100,10.000,0,10\na,105,20.000,0,10\nb,100,30.000,0,10\n")
	f.Add(h + "a,100,1.000,0,10\na,110,-1.000,0,10\na,105,3.000,0,10\n")  // off the grid order
	f.Add(h + "a,100,1.000,0,10\na,105,-0.000,0,10\nb,100,2.5000,0,10\n") // -0, trailing zero
	f.Add(h + "a,100,1.000,0,10\na,105,1.0005,0,10\na,103,2.000,0,10\n")  // four decimals, off grid
	f.Add(h + "a,100,1e3,0,10\na,105,+2,0,10\nb,100,3000000.000,0,10\n")  // slow path, too large
	f.Add(h + "a,100,1.000,0,10\na,100,2.000,0,10\na,95,NaN,0,10\n")      // duplicate, earlier row
	f.Add(h + "a,100,1.000,0,10\na,20260,2.000,0,10\n")                   // a week apart
	f.Fuzz(func(t *testing.T, data string) {
		floats, loads, milli, floatErr, err := ingestBoth(data)
		if fmt.Sprint(err) != fmt.Sprint(floatErr) {
			t.Fatalf("compact err %v, float err %v", err, floatErr)
		}
		if err != nil {
			return
		}
		if len(loads) != len(floats) || len(milli) != len(loads) {
			t.Fatalf("%d compact servers (%d thousandths), %d float", len(loads), len(milli), len(floats))
		}
		for i, want := range floats {
			sl := loads[i]
			if sl.ServerID != want.ServerID || !sl.Load.Start.Equal(want.Load.Start) || sl.Load.Interval != want.Load.Interval ||
				!sl.BackupStart.Equal(want.BackupStart) || !sl.BackupEnd.Equal(want.BackupEnd) {
				t.Fatalf("server %d: %+v, want %+v", i, sl, want)
			}
			got := sl.Load.Values
			if milli[i] != nil {
				if got != nil {
					t.Fatalf("server %s: thousandths and float64 values both", sl.ServerID)
				}
				for _, m := range milli[i] {
					got = append(got, ExpandMilli(m))
				}
			}
			if len(got) != len(want.Load.Values) {
				t.Fatalf("server %s: %d values, want %d", sl.ServerID, len(got), len(want.Load.Values))
			}
			for j, v := range want.Load.Values {
				if math.Float64bits(got[j]) != math.Float64bits(v) {
					t.Fatalf("server %s value %d: %#x, want %#x", sl.ServerID, j, math.Float64bits(got[j]), math.Float64bits(v))
				}
			}
		}
	})
}

// A week as ExtractWeek writes it parses compact in every server, a missing
// point included; one -0 keeps only its own server in float64.
func TestExtractWeekParsesCompact(t *testing.T) {
	fleet := testFleet(t, 15)
	store := testStore(t)
	if _, err := ExtractWeek(store, fleet, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(Dataset, "testregion", 1))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	parts := strings.Split(lines[1], ",")
	parts[2] = "-0.000"
	lines[1] = strings.Join(parts, ",")
	last := strings.Split(lines[len(lines)-2], ",")
	last[2] = "-1.000"
	lines[len(lines)-2] = strings.Join(last, ",")
	_, loads, milli, _, err := ingestBoth(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i, sl := range loads {
		if (milli[i] == nil) != (sl.ServerID == parts[0]) {
			t.Errorf("server %s: compact %v", sl.ServerID, milli[i] != nil)
		}
		for _, m := range milli[i] {
			if m == MissingMilli {
				missing++
			}
		}
	}
	if missing != 1 {
		t.Errorf("%d missing points compacted, want 1", missing)
	}
}
