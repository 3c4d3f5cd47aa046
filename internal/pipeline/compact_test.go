package pipeline

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/timeseries"
)

// compactValues and compactWeek state in float64 terms which values the kept
// form holds as thousandths: exactly those that expand back to their own
// bits. A parse decides the same from the extract's digits
// (extract.IngestCompact); FuzzParsedWeekIsCompact pins the two together.

// compactValues returns vals as thousandths, or false when some value does
// not expand back to its own bits: more than three decimals, -0, a NaN other
// than Missing, an infinity, or a magnitude of 2³¹/1000 or more.
func compactValues(vals []float64) ([]int32, bool) {
	milli := make([]int32, len(vals))
	missing := math.Float64bits(timeseries.Missing)
	for i, v := range vals {
		bits := math.Float64bits(v)
		if bits == missing {
			milli[i] = extract.MissingMilli
			continue
		}
		r := math.Round(v * 1000)
		if !(r > extract.MissingMilli && r <= math.MaxInt32) {
			return nil, false
		}
		m := int32(r)
		if math.Float64bits(extract.ExpandMilli(m)) != bits {
			return nil, false
		}
		milli[i] = m
	}
	return milli, true
}

// compactWeek returns float64 loads in the form a parse keeps them in.
func compactWeek(loads []*extract.ServerLoad) []weekServer {
	out := make([]weekServer, len(loads))
	for i, sl := range loads {
		kept := *sl
		out[i].ServerLoad = &kept
		if milli, ok := compactValues(sl.Load.Values); ok {
			kept.Load.Values, out[i].milli = nil, milli
		}
	}
	return out
}

// An extract written the way ExtractWeek writes it parses into the form
// compactWeek gives its float64 values: thousandths exactly where those
// expand back to the same bits. A NaN in the file, which ScanRows leaves to
// strconv, is the one value the digits cannot decide, so it is not fuzzed.
func FuzzParsedWeekIsCompact(f *testing.F) {
	seed := func(vals ...float64) {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0, 12.345, 100, 99.999, 0.001)
	seed(1.5, -1, 7)
	seed(2, math.Copysign(0, -1), 3)
	seed(2147483.647, 2147483.648, 1e300)
	seed(12.3456, 0.0005, 0.1+0.2, 0.0625)
	seed(math.Inf(1), 5)
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		var file strings.Builder
		file.WriteString(lake.Header + "\n")
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			if math.IsNaN(vals[i]) {
				t.Skip()
			}
			row := lake.Row{ServerID: "s", TimestampMin: 1000 + 5*int64(i), CPUPct: vals[i], BackupStartMin: 1000, BackupEndMin: 1060}
			file.Write(lake.AppendRow(nil, &row))
		}
		if len(vals) == 0 {
			return
		}
		loads, milli, err := extract.IngestCompact(strings.NewReader(file.String()), "r", 0, 5*time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		floats, err := extract.IngestReader(strings.NewReader(file.String()), "r", 0, 5*time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := compactWeek(floats)[0]
		if (milli[0] == nil) != (want.milli == nil) || !slices.Equal(milli[0], want.milli) {
			t.Fatalf("parsed thousandths %v, want %v (values %v)", milli[0], want.milli, floats[0].Load.Values)
		}
		got := weekServer{ServerLoad: loads[0], milli: milli[0]}.appendTo(nil)
		for i, v := range floats[0].Load.Values {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("value %d: %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(v))
			}
		}
	})
}
