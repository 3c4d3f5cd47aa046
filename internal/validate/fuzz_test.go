package validate

import (
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"seagull/internal/extract"
	"seagull/internal/lake"
)

// FuzzIngestChecked pins the pipeline's one-pass read of the current week —
// extract.IngestVisit feeding a RowChecker — to the two reads it replaced:
// extract.Ingest, then ValidateRows re-scanning the same extract. Both must
// produce the same loads and, when the extract ingests, the same report.
func FuzzIngestChecked(f *testing.F) {
	h := lake.Header + "\n"
	f.Add(h + "a,100,10.000,0,10\na,105,20.000,0,10\nb,100,30.000,0,10\n")
	f.Add(h + "a,100,1.000,0,10\nb,100,2.000,0,10\na,105,3.000,0,10\n")     // interleaved blocks
	f.Add(h + "a,100,1.000,0,10\na,100,2.000,0,10\na,105,3.000,0,10\n")     // duplicate
	f.Add(h + "a,110,1.000,0,10\na,100,2.000,0,10\na,107,3.000,0,10\n")     // out of order, off grid
	f.Add(h + "a,100,1.000,0,10\r\na,105,2.000,0,10\r\n")                   // CRLF
	f.Add(h + "a,100,150.000,0,10\na,105,-1.000,0,10\na,110,-7.000,0,10\n") // bound violations
	f.Add(h + "a,100,NaN,0,10\n,105,1.000,0,10\n")                          // NaN, empty id
	f.Add(h + "a,100,1.000,0,10\na,105,2.0")                                // truncated last line
	f.Add(h + "a,100,1.000,0,10\na,105,2.0,0\n")                            // truncated row
	f.Add(h)
	f.Add("not the header\n")

	store, err := lake.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data string) {
		w, err := store.Writer(extract.Dataset, "r", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(w, data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checker := NewRowChecker(DefaultSchema())
		oneLoads, oneErr := extract.IngestVisit(store, "r", 0, 5*time.Minute, checker.Check)
		twoLoads, twoErr := extract.Ingest(store, "r", 0, 5*time.Minute)
		rd, err := store.Reader(extract.Dataset, "r", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		twoRep, err := ValidateRows(rd, DefaultSchema())
		if err != nil {
			t.Fatal(err)
		}

		if (oneErr == nil) != (twoErr == nil) || (oneErr != nil && oneErr.Error() != twoErr.Error()) {
			t.Fatalf("ingest errors differ: one pass %v, two passes %v", oneErr, twoErr)
		}
		if oneErr != nil {
			return // the pipeline stops at ingestion; there is no report to compare
		}
		if len(oneLoads) != len(twoLoads) {
			t.Fatalf("%d servers in one pass, %d in two", len(oneLoads), len(twoLoads))
		}
		for i, a := range oneLoads {
			b := twoLoads[i]
			if a.ServerID != b.ServerID || !a.Load.Start.Equal(b.Load.Start) || a.Load.Interval != b.Load.Interval ||
				!a.BackupStart.Equal(b.BackupStart) || !a.BackupEnd.Equal(b.BackupEnd) || !sameBits(a.Load.Values, b.Load.Values) {
				t.Fatalf("server %d differs:\none pass  %+v\ntwo passes %+v", i, a, b)
			}
		}
		if oneRep := checker.Finish(nil); !reflect.DeepEqual(oneRep, twoRep) {
			t.Fatalf("reports differ:\none pass  %+v\ntwo passes %+v", oneRep, twoRep)
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
