// Package lake is the Azure Data Lake Store analog: a file-system-backed
// store partitioned by dataset, region and week, holding the CSV extracts
// the Load Extraction module produces and the AML pipeline consumes
// (Section 2.2).
//
// The paper's input files "contain server identifier, timestamp in minutes,
// average user CPU load percentage per five minutes, default backup start
// and end timestamps"; Row and the CSV codec implement exactly that layout.
// ScanRows decodes an extract without per-row allocations, each line in one
// pass: one IndexByte finds the end of the server id, and every numeric
// field is then decoded by a loop that stops at its own ',' or at the end of
// the line, so no field is walked twice. The backup window repeats on every row
// of a server block, so ScanRows keeps the bytes after the CPU field of the
// last fast-path row and, while the next line's are equal, reuses that
// window without decoding it again. The fast path is bit-identical to
// strconv; any other line falls back to ParseRow, the strconv reference,
// and forgets the kept bytes. ScanRowsMilli also hands out each CPU as a
// whole number of thousandths wherever its digits give one exactly, so a
// reader can keep the value in four bytes without converting it back.
//
// Beyond the weekly extracts, the lake stores named auxiliary objects (see
// object.go) — notably the stream layer's ring snapshots. Both have atomic
// replace semantics: a write is staged and renamed into place on Close, so
// readers never observe a torn extract or object and a failed write leaves
// the previous version intact.
//
// Concurrency: a Store is safe for concurrent use as far as the underlying
// file system is — distinct objects never interfere, and concurrent writers
// of the same object serialize on the final rename (last Close wins whole).
package lake

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound is returned when a requested object does not exist.
var ErrNotFound = errors.New("lake: object not found")

// Store is a partitioned object store rooted at a directory.
type Store struct {
	root string
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lake: open root: %w", err)
	}
	return &Store{root: dir}, nil
}

// Path returns the object path for (dataset, region, week).
func (s *Store) Path(dataset, region string, week int) string {
	return filepath.Join(s.root, dataset, region, fmt.Sprintf("week-%04d.csv", week))
}

// Writer opens a buffered writer for the extract of (dataset, region, week),
// creating partitions as needed. Like an object write, the extract is staged
// beside its final path and renamed into place on Close, so a reader never
// sees a torn extract and Abort leaves the previous one intact; a staging
// file a crash leaves behind is reclaimed by SweepTempObjects. The rename is
// not fsynced: an extract can be derived again from telemetry. The caller
// must Close or Abort it.
func (s *Store) Writer(dataset, region string, week int) (*ExtractWriter, error) {
	p := s.Path(dataset, region, week)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("lake: create partition: %w", err)
	}
	staged, err := stage(p, false)
	if err != nil {
		return nil, err
	}
	return &ExtractWriter{Writer: bufio.NewWriterSize(staged, 1<<20), staged: staged}, nil
}

// ExtractWriter is a staged extract write: Close publishes it whole, Abort
// drops it. Either is a no-op after the other.
type ExtractWriter struct {
	*bufio.Writer
	staged *objectWriter
}

// Close flushes the extract and publishes it.
func (w *ExtractWriter) Close() error {
	if w.staged.done {
		return nil
	}
	if err := w.Flush(); err != nil {
		w.staged.Abort()
		return err
	}
	return w.staged.Close()
}

// Abort drops the staged extract, leaving any previous one in place.
func (w *ExtractWriter) Abort() { w.staged.Abort() }

// Reader opens the object for reading. The caller must Close it.
func (s *Store) Reader(dataset, region string, week int) (io.ReadCloser, error) {
	f, err := os.Open(s.Path(dataset, region, week))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s/%s/week-%04d", ErrNotFound, dataset, region, week)
		}
		return nil, fmt.Errorf("lake: open object: %w", err)
	}
	return f, nil
}

// Size returns the object size in bytes.
func (s *Store) Size(dataset, region string, week int) (int64, error) {
	fi, err := os.Stat(s.Path(dataset, region, week))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s/%s/week-%04d", ErrNotFound, dataset, region, week)
		}
		return 0, err
	}
	return fi.Size(), nil
}

// Regions lists the regions present under a dataset, sorted.
func (s *Store) Regions(dataset string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, dataset))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Weeks lists the week numbers present for (dataset, region), sorted.
func (s *Store) Weeks(dataset, region string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, dataset, region))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "week-") || !strings.HasSuffix(name, ".csv") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "week-"), ".csv"))
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// Row is one telemetry record in the weekly extract files: the per-five-
// minute average user CPU load of one server, plus the server's current
// default backup window.
type Row struct {
	ServerID string
	// TimestampMin is the observation time in minutes since the Unix epoch
	// (the paper's files carry "timestamp in minutes").
	TimestampMin int64
	// CPUPct is the average user CPU load percentage over the interval;
	// negative values encode missing observations.
	CPUPct float64
	// BackupStartMin/BackupEndMin delimit the server's default backup
	// window in minutes since the Unix epoch.
	BackupStartMin int64
	BackupEndMin   int64
}

// Header is the first line of every extract file.
const Header = "server_id,timestamp_min,cpu_pct,backup_start_min,backup_end_min"

// WriteRows streams rows as CSV, header first.
func WriteRows(w io.Writer, rows []Row) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(Header + "\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for i := range rows {
		buf = AppendRow(buf[:0], &rows[i])
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendRow appends r's CSV encoding (with trailing newline) to buf.
func AppendRow(buf []byte, r *Row) []byte {
	buf = append(buf, r.ServerID...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.TimestampMin, 10)
	buf = append(buf, ',')
	buf = appendCPU(buf, r.CPUPct)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.BackupStartMin, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.BackupEndMin, 10)
	return append(buf, '\n')
}

// appendCPU appends v as strconv.AppendFloat(v, 'f', 3, 64) does. That
// call always takes strconv's multi-precision path; here v·1000 is rounded
// in float64 instead whenever that cannot change the result: below 2⁴⁰ the
// product is within 2⁻¹⁴ of the exact v·1000, so unless its fraction lies
// within 1/1024 of a half, both round to the same integer — and strconv's
// round-half-to-even never comes into play. NaN, ±Inf, larger magnitudes
// and near-ties go to strconv.
func appendCPU(buf []byte, v float64) []byte {
	a := math.Abs(v * 1000)
	if !(a < 1<<40) || math.Abs(a-math.Floor(a)-0.5) < 1.0/1024 {
		return strconv.AppendFloat(buf, v, 'f', 3, 64)
	}
	if math.Signbit(v) {
		buf = append(buf, '-')
	}
	m := uint64(math.Round(a))
	buf = strconv.AppendUint(buf, m/1000, 10)
	f := m % 1000
	return append(buf, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
}

// ParseRow decodes one CSV line (no trailing newline). It is the strconv
// reference ScanRows falls back to, so acceptance, values and error text are
// ParseRow's.
func ParseRow(line string) (Row, error) {
	var r Row
	fields := strings.Split(line, ",")
	if len(fields) != 5 {
		return r, fmt.Errorf("lake: row has %d fields, want 5: %q", len(fields), line)
	}
	r.ServerID = fields[0]
	var err error
	if r.TimestampMin, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return r, fmt.Errorf("lake: bad timestamp %q: %w", fields[1], err)
	}
	if r.CPUPct, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return r, fmt.Errorf("lake: bad cpu %q: %w", fields[2], err)
	}
	if r.BackupStartMin, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
		return r, fmt.Errorf("lake: bad backup start %q: %w", fields[3], err)
	}
	if r.BackupEndMin, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
		return r, fmt.Errorf("lake: bad backup end %q: %w", fields[4], err)
	}
	return r, nil
}

// parseRow decodes one line into r with no kept tail, so every field is
// decoded; see decodeRow.
func parseRow(line []byte, r *Row) error {
	var tail []byte
	_, _, err := decodeRow(line, r, &tail)
	return err
}

// decodeRow decodes line into r in one pass. Rows of the shape ExtractWeek
// writes — optionally '-'-signed decimal digits, a CPU with at most 15
// digits and no exponent — are decoded in place without allocating, and
// r.ServerID is kept while the server does not change; every other line goes
// to ParseRow. *tail holds the bytes after the CPU field of the last row
// decoded here, whose backup window r still carries: a line whose own bytes
// there are equal keeps that window without decoding it again. A line that
// leaves the fast path clears *tail, and an empty tail never matches. milli
// and exact are the CPU's thousandths as cpuField gives them; a line off the
// fast path has none.
func decodeRow(line []byte, r *Row, tail *[]byte) (milli int32, exact bool, err error) {
	id := bytes.IndexByte(line, ',')
	if id < 0 {
		return 0, false, parseRowSlow(line, r, tail)
	}
	ts, i, ok := intField(line, id+1)
	if !ok || i == len(line) {
		return 0, false, parseRowSlow(line, r, tail)
	}
	cpu, milli, exact, i, ok := cpuField(line, i+1)
	if !ok || i == len(line) {
		return 0, false, parseRowSlow(line, r, tail)
	}
	bs, be := r.BackupStartMin, r.BackupEndMin
	if rest := line[i+1:]; len(*tail) == 0 || !bytes.Equal(rest, *tail) {
		if bs, i, ok = intField(line, i+1); !ok || i == len(line) {
			return 0, false, parseRowSlow(line, r, tail)
		}
		if be, i, ok = intField(line, i+1); !ok || i != len(line) {
			return 0, false, parseRowSlow(line, r, tail)
		}
		*tail = append((*tail)[:0], rest...)
	}
	if string(line[:id]) != r.ServerID {
		r.ServerID = string(line[:id])
	}
	r.TimestampMin, r.CPUPct, r.BackupStartMin, r.BackupEndMin = ts, cpu, bs, be
	return milli, exact, nil
}

func parseRowSlow(line []byte, r *Row, tail *[]byte) error {
	*tail = (*tail)[:0]
	row, err := ParseRow(string(line))
	if err == nil {
		*r = row
	}
	return err
}

// field decodes the field that starts at b[i] and ends at the next ',' or
// at the end of b, which end indexes: an optionally '-'-signed run of 1 to
// maxDigits decimal digits, with at most one '.' when dotOK. m is the digits
// read as one integer and frac the number of them after the '.'.
func field(b []byte, i, maxDigits int, dotOK bool) (m uint64, frac int, neg bool, end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		neg, i = true, i+1
	}
	start, dot := i, -1
	for ; i < len(b) && b[i] != ','; i++ {
		switch c := b[i]; {
		case c-'0' <= 9:
			m = m*10 + uint64(c-'0')
		case c == '.' && dotOK && dot < 0:
			dot = i
		default:
			return 0, 0, false, i, false
		}
	}
	digits := i - start
	if dot >= 0 {
		digits, frac = digits-1, i-dot-1
	}
	return m, frac, neg, i, digits > 0 && digits <= maxDigits
}

// intField decodes an integer field of at most 18 digits, which cannot
// overflow an int64.
func intField(b []byte, i int) (v int64, end int, ok bool) {
	m, _, neg, end, ok := field(b, i, 18, false)
	if v = int64(m); neg {
		v = -v
	}
	return v, end, ok
}

// pow10 holds the powers of ten up to 10^15, all exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// cpuField decodes a CPU field of at most 15 digits without exponent. The
// digits form an integer m < 10^15 < 2^53 and the k fraction digits a divisor
// 10^k, both exact in a float64, so m / 10^k is the correctly rounded value
// of the decimal — bit-identical to strconv.ParseFloat, whose own exact fast
// path this is.
//
// With k ≤ 3, once trailing zeros are dropped, the value is also the whole
// number of thousandths m·10^(3−k), which milli holds when it fits an int32
// and exact is set. float64(milli)/1000 is then the correctly rounded
// quotient of the same decimal, so it has v's bits. -0 has no such form.
func cpuField(b []byte, i int) (v float64, milli int32, exact bool, end int, ok bool) {
	m, frac, neg, end, ok := field(b, i, 15, true)
	if !ok {
		return 0, 0, false, end, false
	}
	if v = float64(m) / pow10[frac]; neg {
		v = -v
	}
	for frac > 3 && m%10 == 0 {
		m, frac = m/10, frac-1
	}
	if frac <= 3 {
		if t := m * uint64(pow10[3-frac]); t <= math.MaxInt32 && !(neg && t == 0) {
			if milli, exact = int32(t), true; neg {
				milli = -milli
			}
		}
	}
	return v, milli, exact, end, true
}

// maxLine caps one extract line; the scan buffer starts at 64 KiB and grows
// up to it.
const maxLine = 1 << 20

// scanBufs holds the 64 KiB buffers ScanRows starts its scanner with.
var scanBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// ScanRows reads a CSV extract, invoking fn per row. It verifies the header
// and stops at the first malformed or over-long line, returning its error
// with the line number.
func ScanRows(r io.Reader, fn func(Row) error) error {
	return ScanRowsMilli(r, func(row Row, _ int32, _ bool) error { return fn(row) })
}

// ScanRowsMilli is ScanRows that also hands fn each row's CPU as a whole
// number of thousandths, milli, when exact is set: when its digits, at most
// three of them after the point once trailing zeros are dropped, say exactly
// that, and float64(milli)/1000 is then row.CPUPct bit for bit. exact is
// false for -0, a magnitude of 2³¹/1000 or more and a line off the fast path.
func ScanRowsMilli(r io.Reader, fn func(row Row, milli int32, exact bool) error) error {
	bp := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(bp)
	sc := bufio.NewScanner(r)
	sc.Buffer(*bp, maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("line 1: %w", err)
		}
		return fmt.Errorf("lake: empty file")
	}
	if got := sc.Bytes(); string(got) != Header {
		return fmt.Errorf("lake: bad header %q", got)
	}
	line := 1
	var row Row
	var tail []byte
	for sc.Scan() {
		line++
		milli, exact, err := decodeRow(sc.Bytes(), &row, &tail)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(row, milli, exact); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}
