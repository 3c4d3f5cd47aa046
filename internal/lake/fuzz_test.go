package lake

// Fuzz targets for the extract CSV decoders. Extract files come off the
// shared lake and may be truncated by a killed writer; the decoders must
// reject malformed rows with an error — never panic — and every accepted row
// must survive an encode/decode round trip.

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func FuzzParseRow(f *testing.F) {
	f.Add("srv-001,26280000,12.500,26280480,26280540")
	f.Add("srv-001,26280000,-1.000,26280480,26280540") // missing observation
	f.Add("a,b,c,d,e")
	f.Add(",,,,")
	f.Add("too,few")
	f.Add("srv,1,2,3,4,5,6")
	f.Add("srv,9223372036854775807,0.001,0,0")
	f.Add("srv,1,NaN,3,4")
	f.Add(Header)
	// Shapes on either side of parseRow's fast path.
	f.Add("srv,+5,1e3,-0,007")
	f.Add("srv,1,-0.000,3,4")
	f.Add("srv,1,.5,3,4")
	f.Add("srv,1,5.,3,4")
	f.Add("srv,1,.,3,4")
	f.Add("srv,1,-,3,4")
	f.Add("srv,1,123456789012345,3,4")
	f.Add("srv,1,1234567890123456,3,4")
	f.Add("srv,1,0.1234567890123456789,3,4")
	f.Add("srv,1,1.2.3,3,4")
	f.Add("srv,999999999999999999,1,-999999999999999999,4")
	f.Add("srv,9999999999999999999,1,3,4")
	f.Add("srv,1,2,3,4\r")

	f.Fuzz(func(t *testing.T, line string) {
		// The byte parser agrees with the strconv reference on acceptance,
		// error text and every field, the CPU bit for bit.
		want, wantErr := ParseRow(line)
		got := Row{ServerID: "previous"}
		gotErr := parseRow([]byte(line), &got)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: parseRow err %v, ParseRow err %v", line, gotErr, wantErr)
		}
		if wantErr == nil && (got.ServerID != want.ServerID || got.TimestampMin != want.TimestampMin ||
			math.Float64bits(got.CPUPct) != math.Float64bits(want.CPUPct) ||
			got.BackupStartMin != want.BackupStartMin || got.BackupEndMin != want.BackupEndMin) {
			t.Fatalf("%q: parseRow %+v, ParseRow %+v", line, got, want)
		}

		row, err := ParseRow(line)
		if err != nil {
			return
		}
		if math.IsNaN(row.CPUPct) || math.IsInf(row.CPUPct, 0) {
			// NaN/Inf parse as valid floats; they must still encode and
			// re-parse without panicking (AppendRow formats them as text
			// that ParseRow rejects — that is fine, only a panic is not).
			buf := AppendRow(nil, &row)
			_, _ = ParseRow(strings.TrimSuffix(string(buf), "\n"))
			return
		}
		if strings.Contains(row.ServerID, ",") {
			// Unsplittable ambiguity: a comma inside the first field would
			// have shifted the field count, so ParseRow cannot accept it.
			t.Fatalf("accepted server id with comma: %q", row.ServerID)
		}
		// Round trip: encode and re-parse. The float is re-formatted at
		// millipercent precision, so compare after one round.
		buf := AppendRow(nil, &row)
		again, err := ParseRow(strings.TrimSuffix(string(buf), "\n"))
		if err != nil {
			t.Fatalf("re-parse of encoded row failed: %v\nrow: %+v\nenc: %q", err, row, buf)
		}
		buf2 := AppendRow(nil, &again)
		if string(buf) != string(buf2) {
			t.Fatalf("row not stable after one encode round: %q vs %q", buf, buf2)
		}
	})
}

func FuzzScanRows(f *testing.F) {
	f.Add(Header + "\nsrv-001,26280000,12.500,26280480,26280540\n")
	f.Add(Header + "\n")
	f.Add("")
	f.Add("not,the,header\nsrv,1,2,3,4\n")
	f.Add(Header + "\nsrv,garbage,2,3,4\n")
	f.Add(Header + "\n" + strings.Repeat("srv,1,2.000,3,4\n", 64))

	f.Fuzz(func(t *testing.T, data string) {
		rows := 0
		err := ScanRows(strings.NewReader(data), func(Row) error {
			rows++
			return nil
		})
		if err != nil && rows > 0 && !strings.HasPrefix(data, Header+"\n") {
			// A file that fails the header check must deliver zero rows.
			t.Fatalf("header-rejected file still delivered %d rows", rows)
		}
	})
}

// FuzzScanRowsMatchesParseRow checks the stateful scanner over whole files:
// ScanRows, which reuses a row's backup window when the bytes after its CPU
// field repeat the previous fast-path row's, delivers exactly the rows
// ParseRow gives line by line, and fails with the same error on the same
// line.
func FuzzScanRowsMatchesParseRow(f *testing.F) {
	f.Add("a,1,2.000,10,20\na,2,+3,10,20\na,3,4.000,10,20\n")    // slow row between equal tails
	f.Add("a,1,2.000,10,20\na,2,3,+11,20\na,3,4.000,10,20\n")    // slow row with other backup fields
	f.Add("a,1,2.000,10,20\na,2,3,11,21\na,3,4.000,10,20\n")     // a tail change on the fast path
	f.Add("a,1,2.000,\na,2,3.000,\n")                            // empty tail
	f.Add("a,1,2.000,10,20\r\na,2,3.000,10,20\r\na,3,4,10,20\r") // CRLF endings
	f.Add("a,1,2.000,10,20\nb,1,3.000,10,20\n")                  // server change, equal tail
	f.Add("a,1,2.000,10,20\na,2,3.000,10,20,\na,3,4.000,10\n")   // a sixth and a fourth field
	f.Add("a,1,2.000,10,20\na,2,x,10,20\n")                      // error after a kept tail

	f.Fuzz(func(t *testing.T, body string) {
		var got []Row
		gotErr := ScanRows(strings.NewReader(Header+"\n"+body), func(r Row) error {
			got = append(got, r)
			return nil
		})

		// The reference splits lines as ScanRows's scanner does and decodes
		// each one with ParseRow alone.
		var want []Row
		var wantErr error
		sc := bufio.NewScanner(strings.NewReader(body))
		sc.Buffer(nil, maxLine)
		line := 1
		for sc.Scan() {
			line++
			r, err := ParseRow(sc.Text())
			if err != nil {
				wantErr = fmt.Errorf("line %d: %w", line, err)
				break
			}
			want = append(want, r)
		}
		if err := sc.Err(); err != nil && wantErr == nil {
			wantErr = fmt.Errorf("line %d: %w", line+1, err)
		}

		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("ScanRows err %v, ParseRow err %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("ScanRows delivered %d rows, ParseRow %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ServerID != w.ServerID || g.TimestampMin != w.TimestampMin ||
				math.Float64bits(g.CPUPct) != math.Float64bits(w.CPUPct) ||
				g.BackupStartMin != w.BackupStartMin || g.BackupEndMin != w.BackupEndMin {
				t.Fatalf("row %d: ScanRows %+v, ParseRow %+v", i, g, w)
			}
		}
	})
}

// FuzzAppendRow checks AppendRow's CPU formatting, which rounds in float64
// wherever that cannot change the digits, against the strconv call it
// stands for, byte for byte.
func FuzzAppendRow(f *testing.F) {
	for _, v := range []float64{math.Copysign(0, -1), 0, 0.0625, 0.0005, 0.0015, -1, 1e15, 1 << 40, 12.345,
		99.9995, -2.5e-4, 5e-324, 2.2250738585072009e-308, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		r := Row{ServerID: "srv", TimestampMin: 1, CPUPct: v, BackupStartMin: 2, BackupEndMin: 3}
		want := "srv,1," + strconv.FormatFloat(v, 'f', 3, 64) + ",2,3\n"
		if got := string(AppendRow(nil, &r)); got != want {
			t.Fatalf("%v (%#x): AppendRow %q, want %q", v, math.Float64bits(v), got, want)
		}
	})
}

// FuzzScanRowsMilli checks the thousandths ScanRowsMilli hands out: where it
// says a CPU is exact, float64(milli)/1000 is the CPU bit for bit, and the
// rows are ScanRows's.
func FuzzScanRowsMilli(f *testing.F) {
	for _, cpu := range []string{"12.500", "-1.000", "-0.000", "0.000", "12.3456", "1.5000", "0.0005",
		"2147483.647", "2147483.648", "-2147483.647", "+3", "1e3", "007.100", "100"} {
		f.Add("a,1," + cpu + ",10,20\n")
	}
	f.Fuzz(func(t *testing.T, body string) {
		var want []Row
		wantErr := ScanRows(strings.NewReader(Header+"\n"+body), func(r Row) error {
			want = append(want, r)
			return nil
		})
		i := 0
		err := ScanRowsMilli(strings.NewReader(Header+"\n"+body), func(r Row, milli int32, exact bool) error {
			if r != want[i] {
				t.Fatalf("row %d: %+v, ScanRows %+v", i, r, want[i])
			}
			if exact && math.Float64bits(float64(milli)/1000) != math.Float64bits(r.CPUPct) {
				t.Fatalf("row %d: %d thousandths for %v (%#x)", i, milli, r.CPUPct, math.Float64bits(r.CPUPct))
			}
			i++
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || i != len(want) {
			t.Fatalf("%d rows, err %v; ScanRows %d rows, err %v", i, err, len(want), wantErr)
		}
	})
}
