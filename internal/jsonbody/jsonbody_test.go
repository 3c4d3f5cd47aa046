package jsonbody

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
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
