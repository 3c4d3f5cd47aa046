package router

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// LowerMaxBodyBytes lowers the router's body limit to n until t ends, for
// tests outside the package.
func LowerMaxBodyBytes(t testing.TB, n int64) {
	old := maxBodyBytes
	maxBodyBytes = n
	t.Cleanup(func() { maxBodyBytes = old })
}

// TestReadBodyPresizeBounded: a request that declares the largest body the
// router accepts and then sends a few bytes makes the router allocate about
// maxPresize for it, not the declared size. (The bound allows for the copy
// bytes.Buffer's growth makes when the compiler's make-and-append
// optimisation is off, as under -race.)
func TestReadBodyPresizeBounded(t *testing.T) {
	rt, err := New(Config{Replicas: []Replica{{Name: "a", BaseURL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	const sent = `{"points":[]}`
	r := httptest.NewRequest(http.MethodPost, "/v2/ingest", strings.NewReader(sent))
	r.ContentLength = maxBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, ok := rt.readBody(httptest.NewRecorder(), r)
	runtime.ReadMemStats(&after)
	if !ok || string(body) != sent {
		t.Fatalf("readBody = %q, %v; want %q", body, ok, sent)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*maxPresize {
		t.Fatalf("a %d-byte body declared as %d bytes allocated %d bytes; want at most %d",
			len(sent), maxBodyBytes, n, 4*maxPresize)
	}
}
