package lake

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func tempStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenCreatesRoot(t *testing.T) {
	dir := t.TempDir() + "/nested/lake"
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("root %s not created: %v", dir, err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := tempStore(t)
	w, err := s.Writer("ds", "westus", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "hello\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Reader("ds", "westus", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil || string(data) != "hello\n" {
		t.Errorf("read %q err %v", data, err)
	}
	sz, err := s.Size("ds", "westus", 3)
	if err != nil || sz != 6 {
		t.Errorf("Size = %d err %v", sz, err)
	}
}

// TestExtractRewriteIsAtomic: rewriting an extract never exposes a partial
// one. A reader opened mid-rewrite reads the old extract whole, an aborted
// rewrite leaves the old bytes in place, and the staging file it used is
// gone; a rewrite that completes replaces the extract on Close.
func TestExtractRewriteIsAtomic(t *testing.T) {
	s := tempStore(t)
	write := func(data string) io.WriteCloser {
		t.Helper()
		w, err := s.Writer("ds", "westus", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(w, data); err != nil {
			t.Fatal(err)
		}
		return w
	}
	read := func() string {
		t.Helper()
		r, err := s.Reader("ds", "westus", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	old := Header + "\na,1,2.000,3,4\n"
	if err := write(old).Close(); err != nil {
		t.Fatal(err)
	}

	flush := func(w io.WriteCloser) {
		t.Helper()
		if f, ok := w.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil { // push the partial rewrite to disk
				t.Fatal(err)
			}
		}
	}
	w := write(Header + "\nb,")
	flush(w)
	if got := read(); got != old {
		t.Fatalf("reader during a rewrite read %q, want the old extract %q", got, old)
	}
	ab, ok := w.(interface{ Abort() })
	if !ok {
		t.Fatal("extract writer cannot abort a rewrite")
	}
	ab.Abort()
	if got := read(); got != old {
		t.Fatalf("after an aborted rewrite the extract is %q, want %q", got, old)
	}
	if n, err := s.SweepTempObjects(); n != 0 || err != nil {
		t.Fatalf("aborted rewrite left %d staging files (%v)", n, err)
	}

	// A rewrite a crash cut short is invisible and swept like an object's.
	flush(write("torn"))
	if weeks, err := s.Weeks("ds", "westus"); err != nil || len(weeks) != 1 {
		t.Fatalf("Weeks = %v, %v; want [1]", weeks, err)
	}
	if n, err := s.SweepTempObjects(); n != 1 || err != nil {
		t.Fatalf("SweepTempObjects = %d, %v; want 1", n, err)
	}

	if err := write("new\n").Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "new\n" {
		t.Fatalf("completed rewrite reads %q", got)
	}
}

func TestReaderNotFound(t *testing.T) {
	s := tempStore(t)
	if _, err := s.Reader("ds", "nowhere", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("ds", "nowhere", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size err = %v, want ErrNotFound", err)
	}
}

func TestRegionsAndWeeks(t *testing.T) {
	s := tempStore(t)
	for _, rg := range []string{"eastus", "westeu"} {
		for _, wk := range []int{0, 2} {
			w, err := s.Writer("ds", rg, wk)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
	}
	regions, err := s.Regions("ds")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 || regions[0] != "eastus" || regions[1] != "westeu" {
		t.Errorf("Regions = %v", regions)
	}
	weeks, err := s.Weeks("ds", "eastus")
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) != 2 || weeks[0] != 0 || weeks[1] != 2 {
		t.Errorf("Weeks = %v", weeks)
	}
	// Missing dataset/region yield empty, not errors.
	if rs, err := s.Regions("nope"); err != nil || rs != nil {
		t.Errorf("missing dataset: %v %v", rs, err)
	}
	if ws, err := s.Weeks("ds", "nope"); err != nil || ws != nil {
		t.Errorf("missing region: %v %v", ws, err)
	}
}

func TestRowRoundTrip(t *testing.T) {
	rows := []Row{
		{ServerID: "a", TimestampMin: 100, CPUPct: 42.125, BackupStartMin: 10, BackupEndMin: 20},
		{ServerID: "b", TimestampMin: 105, CPUPct: -1, BackupStartMin: 0, BackupEndMin: 0},
	}
	var buf bytes.Buffer
	if err := WriteRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var got []Row
	err := ScanRows(&buf, func(r Row) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0] != rows[0] || got[1] != rows[1] {
		t.Errorf("round trip mismatch: %+v vs %+v", got, rows)
	}
}

func TestParseRowErrors(t *testing.T) {
	bad := []string{
		"only,four,fields,here",
		"srv,notanum,1.0,0,0",
		"srv,100,notanum,0,0",
		"srv,100,1.0,x,0",
		"srv,100,1.0,0,x",
	}
	for _, line := range bad {
		if _, err := ParseRow(line); err == nil {
			t.Errorf("ParseRow(%q) should fail", line)
		}
	}
}

func TestScanRowsHeaderChecks(t *testing.T) {
	if err := ScanRows(strings.NewReader(""), nil); err == nil {
		t.Error("empty file should error")
	}
	if err := ScanRows(strings.NewReader("wrong,header\n"), nil); err == nil {
		t.Error("bad header should error")
	}
}

func TestScanRowsStopsOnCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRows(&buf, []Row{{ServerID: "a"}, {ServerID: "b"}}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	stop := errors.New("stop")
	err := ScanRows(&buf, func(Row) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestScanRowsReportsLineNumbers(t *testing.T) {
	data := Header + "\nsrv,100,1.0,0,0\ngarbage line\n"
	err := ScanRows(strings.NewReader(data), func(Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line number", err)
	}
}

// The extract's whole CPU domain — the missing sentinel and 0.000 through
// 100.000 as ExtractWeek formats them — decodes bit-identically to
// strconv.ParseFloat through ScanRows, every line on its fast path.
func TestParseCPUExhaustiveDomain(t *testing.T) {
	var texts []string
	add := func(v float64) { texts = append(texts, strconv.FormatFloat(v, 'f', 3, 64)) }
	add(-1)
	for milli := 0; milli <= 100_000; milli++ {
		add(float64(milli) / 1000)
	}
	var data strings.Builder
	data.WriteString(Header + "\n")
	for _, text := range texts {
		data.WriteString("srv,1," + text + ",2,3\n")
	}
	i := 0
	err := ScanRows(strings.NewReader(data.String()), func(r Row) error {
		want, err := strconv.ParseFloat(texts[i], 64)
		if err != nil || math.Float64bits(r.CPUPct) != math.Float64bits(want) {
			return fmt.Errorf("%s: ScanRows %v, ParseFloat %v (err %v)", texts[i], r.CPUPct, want, err)
		}
		i++
		return nil
	})
	if err != nil || i != len(texts) {
		t.Fatalf("after %d of %d rows: %v", i, len(texts), err)
	}
}

func TestScanRowsOverlongLineReportsLineNumber(t *testing.T) {
	data := Header + "\nsrv,100,1.0,0,0\n" + strings.Repeat("x", maxLine+1) + "\n"
	rows := 0
	err := ScanRows(strings.NewReader(data), func(Row) error { rows++; return nil })
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "line 3") || rows != 1 {
		t.Errorf("err = %v after %d rows, want bufio.ErrTooLong at line 3 after 1 row", err, rows)
	}
}

// A well-formed extract scans without per-row allocations.
func TestScanRowsAllocationFree(t *testing.T) {
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i] = Row{ServerID: fmt.Sprintf("srv-%d", i/500), TimestampMin: int64(i * 5),
			CPUPct: float64(i%1000) / 10, BackupStartMin: 10, BackupEndMin: 20}
	}
	var buf bytes.Buffer
	if err := WriteRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if err := ScanRows(bytes.NewReader(data), func(Row) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	// The scanner and its buffer, plus one ServerID string per server block.
	if allocs > 10 {
		t.Errorf("ScanRows of %d rows made %.0f allocations", len(rows), allocs)
	}
}

// Property: AppendRow/ParseRow round-trips arbitrary rows (within the fixed
// 3-decimal CPU precision).
func TestPropertyRowRoundTrip(t *testing.T) {
	f := func(id uint16, ts int32, cpuMilli int16, bs, be int32) bool {
		r := Row{
			ServerID:       "srv-" + strings.Repeat("x", int(id%8)),
			TimestampMin:   int64(ts),
			CPUPct:         float64(cpuMilli) / 1000,
			BackupStartMin: int64(bs),
			BackupEndMin:   int64(be),
		}
		line := string(AppendRow(nil, &r))
		got, err := ParseRow(strings.TrimSuffix(line, "\n"))
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Every CPU of the extract's domain, as ExtractWeek formats it, comes with
// its thousandths; -0, a fourth significant decimal and a row off the fast
// path come without, and trailing zeros do not count.
func TestScanRowsMilliDomain(t *testing.T) {
	var data strings.Builder
	data.WriteString(Header + "\n")
	for milli := -1000; milli <= 100_000; milli++ {
		data.WriteString("srv,1," + strconv.FormatFloat(float64(milli)/1000, 'f', 3, 64) + ",2,3\n")
	}
	odd := []struct {
		cpu   string
		milli int32
		exact bool
	}{{"-0.000", 0, false}, {"12.3456", 0, false}, {"1.5000", 1500, true}, {"2147483.647", math.MaxInt32, true},
		{"2147483.648", 0, false}, {"+3", 0, false}, {"1e3", 0, false}, {"7", 7000, true}}
	for _, o := range odd {
		data.WriteString("srv,1," + o.cpu + ",2,3\n")
	}
	i := 0
	err := ScanRowsMilli(strings.NewReader(data.String()), func(r Row, milli int32, exact bool) error {
		want, wantExact := int32(i-1000), true
		if i > 101_000 {
			o := odd[i-101_001]
			want, wantExact = o.milli, o.exact
		}
		if exact != wantExact || (exact && milli != want) {
			return fmt.Errorf("row %d (%v): %d thousandths, exact %v; want %d, %v", i, r.CPUPct, milli, exact, want, wantExact)
		}
		i++
		return nil
	})
	if err != nil || i != 101_001+len(odd) {
		t.Fatalf("after %d rows: %v", i, err)
	}
}
