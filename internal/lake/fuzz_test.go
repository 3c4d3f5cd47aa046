package lake

// Fuzz targets for the extract CSV decoders. Extract files come off the
// shared lake and may be truncated by a killed writer; the decoders must
// reject malformed rows with an error — never panic — and every accepted row
// must survive an encode/decode round trip.

import (
	"math"
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
