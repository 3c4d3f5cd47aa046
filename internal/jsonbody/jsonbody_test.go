package jsonbody

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// FuzzScanValid holds the scanner to encoding/json: Valid accepts exactly
// what json.Valid accepts.
func FuzzScanValid(f *testing.F) {
	for _, seed := range []string{
		`{"server_id":"a","server_id":"b","SERVER_ID":"c","ſerver_id":"d"}`,
		`{"history":{"values":[1]},"history":{"interval_min":5}}`,
		`{"scenario":null,"history":null,"servers":[null,{"history":{"values":null}}]}`,
		`{"values":[-0,1e400,-1E-400,0.5e+3,1.0]}`,
		`{"server_id":"a_b\"\\\/\b\f\n\r\t","x":"😀"}`,
		`{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":-}`, `{"x":1e}`, `{"x":+1}`, `{"x":0x1}`,
		`{"x":"\u12"}`, `{"x":"\x"}`, "{\"x\":\"a\x01\"}", "{\"x\":\"\xff\xfe\x7f\"}",
		`{"x":tru}`, `{"x":truex}`, `{"x":nul}`, `[1,]`, `{"a":1,}`, `{,}`, `{"a" 1}`, `{1:2}`,
		`{"a":1} trailing`, `{}{}`, ` 7 `, `"s"`, ``, ` `, "\x00", `[`, `{"a":[}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Valid(data), json.Valid(data); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid %v", data, got, want)
		}
	})
}

// TestScanDepth: the scanner keeps encoding/json's nesting limit, 10,000
// levels of objects and arrays.
func TestScanDepth(t *testing.T) {
	for _, levels := range []int{9999, 10000, 10001, 10002} {
		for _, data := range []string{
			strings.Repeat("[", levels) + strings.Repeat("]", levels),
			strings.Repeat(`{"x":`, levels-1) + "[]" + strings.Repeat("}", levels-1),
		} {
			if got, want := Valid([]byte(data)), json.Valid([]byte(data)); got != want {
				t.Errorf("%d levels of %.5s: Valid %v, json.Valid %v", levels, data, got, want)
			}
		}
	}
}

// TestFloats: the number-array reader parses what encoding/json parses into
// a []float64 and refuses every other shape.
func TestFloats(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`[]`, true}, {` [ 1 , -0 , 2.5e-3 ] `, true}, {`[4.9e-324,1e-400]`, true},
		{`null`, false}, {`[1,null]`, false}, {`[1,"a"]`, false}, {`[1e400]`, false}, {`[[1]]`, false},
		{`[1,]`, false}, {`[01]`, false}, {`[1 2]`, false}, {`{}`, false},
	} {
		s := NewScanner([]byte(c.in))
		got, err := s.Floats(nil)
		if err == nil {
			err = s.End()
		}
		var want []float64
		wantErr := json.Unmarshal([]byte(c.in), &want)
		if (err == nil) != c.ok || c.ok && (wantErr != nil || got == nil || len(got) != len(want)) {
			t.Errorf("Floats(%s) = %v, %v; encoding/json %v, %v", c.in, got, err, want, wantErr)
		}
		if err != nil || len(got) != len(want) {
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Floats(%s)[%d] = %v, encoding/json %v", c.in, i, got[i], want[i])
			}
		}
	}
}

// parseOne runs Floats over a one-element array holding num and checks the
// result against strconv.ParseFloat(num): the same bits, or an error exactly
// when strconv gives one.
func parseOne(t *testing.T, num string) {
	t.Helper()
	s := NewScanner([]byte("[" + num + "]"))
	got, err := s.Floats(nil)
	want, wantErr := strconv.ParseFloat(num, 64)
	switch {
	case wantErr != nil:
		if err == nil {
			t.Fatalf("Floats([%s]) = %v; strconv.ParseFloat: %v", num, got, wantErr)
		}
	case err != nil || len(got) != 1:
		t.Fatalf("Floats([%s]) = %v, %v; strconv.ParseFloat: %v", num, got, err, want)
	case math.Float64bits(got[0]) != math.Float64bits(want):
		t.Fatalf("Floats([%s]) = %v (%#x); strconv.ParseFloat: %v (%#x)",
			num, got[0], math.Float64bits(got[0]), want, math.Float64bits(want))
	}
}

// TestFloatKernel: the numbers at the edges of the exact conversion — both
// sides of 2^53, halfway cases that round to even either way, signed and
// unsigned zeros, the digit limits and the fallbacks past them — convert to
// strconv.ParseFloat's bits.
func TestFloatKernel(t *testing.T) {
	for _, num := range []string{
		"0", "-0", "0.000", "-0.000", "1", "-1", "0.5", "2.5e-3", "100.00",
		"9007199254740991", "9007199254740992", "9007199254740993", // 2^53 - 1, 2^53, 2^53 + 1 (a tie, to even: down)
		"9007199254740994", "9007199254740995", "-9007199254740995", // a tie that rounds up
		"4503599627370496.5", "4503599627370497.5", "450359962737049.65", // ties and a near tie past the division
		// Above a tie by less than the quotient's last bit: only the
		// division's remainder tells them from the tie.
		"390301951911.0951233", "842589245479.1618042", "393954639605.6246033", "80603471852.53734589",
		"3711186268369.270264", "16968779.67040300183",
		"0.0000000000000000001", "0.00000000000000000001", // 19 fraction digits; 20 fall back
		"9999999999999999999", "-9999999999999999999", "18446744073709551615", // 19 digits; 20 fall back
		"12345678901234567890", "1.2345678901234567890", "9.9999999999999999999", "99.999999999999999999",
		"0.30000000000000004", "0.1", "0.7", "1.7976931348623157", "33.333333333333336", "99.999999999999986",
		"1e400", "-1E400", "4.9e-324", "1e-400", "1.7976931348623157e308", "5e-1",
	} {
		parseOne(t, num)
	}
}

// TestFloatKernelMatchesStrconv: random 2-decimal telemetry values and random
// 17-significant-digit values, the two shapes the wire carries, convert to
// strconv.ParseFloat's bits.
func TestFloatKernelMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		parseOne(t, strconv.FormatFloat(100*rng.Float64(), 'f', 2, 64))
		parseOne(t, strconv.FormatFloat(100*rng.Float64(), 'g', 17, 64))
		parseOne(t, strconv.FormatFloat(rng.NormFloat64(), 'f', -1, 64))
	}
}

// FuzzFloatKernel builds a number from a mantissa, the place of its decimal
// point (0 to 19 digits from the right), a sign and an optional exponent,
// and holds Floats to strconv.ParseFloat on it, bit for bit.
func FuzzFloatKernel(f *testing.F) {
	f.Add(uint64(9007199254740993), uint8(0), false, false, int16(0))
	f.Add(uint64(9007199254740995), uint8(0), true, false, int16(0))
	f.Add(uint64(45035996273704965), uint8(1), false, false, int16(0))
	f.Add(uint64(33333333333333336), uint8(15), false, false, int16(0))
	f.Add(uint64(9999999999999999999), uint8(19), false, false, int16(0))
	f.Add(uint64(18446744073709551615), uint8(7), false, false, int16(0))
	f.Add(uint64(3903019519110951233), uint8(7), false, false, int16(0))
	f.Add(uint64(1), uint8(19), false, false, int16(0))
	f.Add(uint64(0), uint8(3), true, false, int16(0))
	f.Add(uint64(49), uint8(1), false, true, int16(-325))
	f.Add(uint64(1), uint8(0), false, true, int16(400))
	f.Fuzz(func(t *testing.T, mant uint64, point uint8, neg, hasExp bool, exp int16) {
		num := strconv.FormatUint(mant, 10)
		if p := int(point % 20); p > 0 {
			if len(num) <= p {
				num = strings.Repeat("0", p-len(num)+1) + num
			}
			num = num[:len(num)-p] + "." + num[len(num)-p:]
		}
		if neg {
			num = "-" + num
		}
		if hasExp {
			num += "e" + strconv.Itoa(int(exp))
		}
		parseOne(t, num)
	})
}

// TestReadPresizeBounded: a request that declares the largest body a server
// accepts and then sends a few bytes makes Read allocate about maxPresize
// for it, not the declared size. (The bound allows for the copy
// bytes.Buffer's growth makes when the compiler's make-and-append
// optimisation is off, as under -race.)
func TestReadPresizeBounded(t *testing.T) {
	const limit, sent = 64 << 20, `{"points":[]}`
	r := httptest.NewRequest(http.MethodPost, "/v2/ingest", strings.NewReader(sent))
	r.ContentLength = limit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, err := Read(httptest.NewRecorder(), r, limit)
	runtime.ReadMemStats(&after)
	if err != nil || string(body) != sent {
		t.Fatalf("Read = %q, %v; want %q", body, err, sent)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*maxPresize {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes; want at most %d",
			len(sent), limit, n, 4*maxPresize)
	}
}

// BenchmarkFloats times Floats over a week of 5-minute values (2,016) in the
// two shapes the wire carries: a re-shipped forecast history, whose values
// print with 17 significant digits, and ingested telemetry, whose values
// carry 2 decimals.
func BenchmarkFloats(b *testing.B) {
	for _, c := range []struct {
		name string
		fmt  func(v float64) string
	}{
		{"17digit", func(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }},
		{"2decimal", func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }},
	} {
		rng := rand.New(rand.NewPCG(1, 2))
		nums := make([]string, 2016)
		for i := range nums {
			nums[i] = c.fmt(100 * rng.Float64())
		}
		body := []byte("[" + strings.Join(nums, ",") + "]")
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, 0, len(nums))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				s := NewScanner(body)
				var err error
				if dst, err = s.Floats(dst); err != nil || len(dst) != len(nums) {
					b.Fatal(err)
				}
			}
		})
	}
}
