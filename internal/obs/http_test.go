package obs

import (
	"bufio"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// flushRecorder wraps httptest.ResponseRecorder to count Flush calls through
// the statusWriter.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusWriterUpgrades: the instrumentation wrapper must forward the
// optional ResponseWriter interfaces instead of swallowing them.
func TestStatusWriterUpgrades(t *testing.T) {
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}

	var w http.ResponseWriter = sw
	if f, ok := w.(http.Flusher); !ok {
		t.Fatal("statusWriter does not expose Flusher")
	} else {
		f.Flush()
	}
	if rec.flushes != 1 {
		t.Fatalf("flushes = %d, want 1 forwarded", rec.flushes)
	}

	// Unwrap lets http.ResponseController find the underlying writer.
	if got := sw.Unwrap(); got != http.ResponseWriter(rec) {
		t.Fatal("Unwrap did not return the wrapped writer")
	}

	// A non-hijackable underlying writer yields ErrNotSupported, not a panic.
	if _, _, err := sw.Hijack(); err != http.ErrNotSupported {
		t.Fatalf("Hijack on plain recorder = %v, want ErrNotSupported", err)
	}

	// A hijackable writer is forwarded.
	hj := &hijackRecorder{ResponseRecorder: httptest.NewRecorder()}
	sw2 := &statusWriter{ResponseWriter: hj, status: http.StatusOK}
	if _, _, err := sw2.Hijack(); err != nil {
		t.Fatalf("Hijack on hijackable writer = %v", err)
	}
	if !hj.hijacked {
		t.Fatal("Hijack not forwarded")
	}
}

type hijackRecorder struct {
	*httptest.ResponseRecorder
	hijacked bool
}

func (h *hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h.hijacked = true
	return nil, nil, nil
}

// TestLatencyBucketLayout guards the compile-time tie between the bounds
// array and the bucket-counter width, and the overflow behavior at the edges.
func TestLatencyBucketLayout(t *testing.T) {
	if numLatencyBuckets != len(latencyBoundsMs)+1 {
		t.Fatalf("numLatencyBuckets = %d, want len(bounds)+1 = %d", numLatencyBuckets, len(latencyBoundsMs)+1)
	}
	if !sort.Float64sAreSorted(latencyBoundsMs[:]) {
		t.Fatal("latencyBoundsMs must be ascending for sort.SearchFloat64s")
	}
	var ev endpointVars
	ev.observe(50*time.Microsecond, 200) // below the first bound (0.1ms)
	ev.observe(time.Hour, 200)           // far beyond the last bound (10s)
	if ev.buckets[0].Load() != 1 {
		t.Errorf("fast observation not in first bucket")
	}
	if ev.buckets[numLatencyBuckets-1].Load() != 1 {
		t.Errorf("slow observation not in overflow bucket")
	}
}

// TestInstrumentAccountsAndLabels: one middleware does the whole per-request
// account — count, errors, histogram, in-flight back to zero — and the
// request ID rides the response with or without a tracer.
func TestInstrumentAccountsAndLabels(t *testing.T) {
	for _, tracer := range []*Tracer{nil, NewTracer(TracerConfig{})} {
		h := NewHTTP(nil, tracer)
		var sawTrace bool
		handler := h.Instrument("GET /x", func(w http.ResponseWriter, r *http.Request) {
			sawTrace = TraceFrom(r.Context()) != nil
			if r.URL.Query().Has("fail") {
				w.WriteHeader(http.StatusTeapot)
			}
		})

		req := httptest.NewRequest("GET", "/x", nil)
		req.Header.Set("X-Request-Id", "mine-1")
		rec := httptest.NewRecorder()
		handler(rec, req)
		if got := rec.Header().Get("X-Request-Id"); got != "mine-1" {
			t.Fatalf("tracer=%v: echo = %q, want mine-1", tracer != nil, got)
		}
		if sawTrace != (tracer != nil) {
			t.Fatalf("tracer=%v: handler saw trace = %v", tracer != nil, sawTrace)
		}

		rec = httptest.NewRecorder()
		handler(rec, httptest.NewRequest("GET", "/x?fail", nil))
		if rec.Header().Get("X-Request-Id") == "" {
			t.Fatalf("tracer=%v: no request ID minted", tracer != nil)
		}

		ep := h.Snapshot()["GET /x"]
		if ep.Count != 2 || ep.Errors != 1 || ep.InFlight != 0 {
			t.Fatalf("tracer=%v: counters %+v", tracer != nil, ep)
		}
		var observed uint64
		for _, c := range ep.LatencyCounts {
			observed += c
		}
		if observed != 2 || len(ep.LatencyCounts) != len(ep.LatencyMsBounds)+1 {
			t.Fatalf("tracer=%v: histogram %+v", tracer != nil, ep.LatencyHist)
		}
		if tracer != nil {
			if recent := tracer.Recent(10); len(recent) != 2 || recent[1].RequestID != "mine-1" || recent[0].Status != http.StatusTeapot {
				t.Fatalf("traces not finished with ID and status: %+v", recent)
			}
		}
	}
}
