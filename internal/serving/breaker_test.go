package serving

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seagull/internal/simclock"
)

func TestBreakerOpensFailsFastAndRecloses(t *testing.T) {
	// A server that is down for the first `failing` requests, then healthy.
	var calls atomic.Int64
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ErrorBody{Code: CodeOverloaded, Message: "shed"}})
			return
		}
		writeJSON(w, http.StatusOK, ModelsResponseV2{})
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Retry = RetryConfig{MaxAttempts: 2}
	c.Breaker = BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond}
	clock := simclock.NewSimulated(time.Unix(0, 0))
	clock.AutoAdvanceSleeps() // backoff waits advance simulated time instantly
	c.Clock = clock
	ctx := context.Background()

	// Three consecutive failures (call 1: two attempts; call 2: opens on its
	// first attempt, before the retry loop can fire a second).
	if _, err := c.ModelsV2(ctx); err == nil {
		t.Fatal("down server must fail")
	}
	_, err := c.ModelsV2(ctx)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want circuit-open on the opening failure", err)
	}
	sent := calls.Load()
	if sent != 3 {
		t.Fatalf("server saw %d requests, want exactly Threshold=3 before the circuit opened", sent)
	}

	// Open: calls fail fast without touching the server.
	for i := 0; i < 5; i++ {
		if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d err = %v, want fail-fast ErrCircuitOpen", i, err)
		}
	}
	if got := calls.Load(); got != sent {
		t.Fatalf("open circuit leaked %d requests to the server", got-sent)
	}

	// Cooldown elapses on the simulated clock; the server has recovered. The
	// half-open probe flies, succeeds and closes the circuit for everyone.
	healthy.Store(true)
	clock.Advance(60 * time.Millisecond)
	if _, err := c.ModelsV2(ctx); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.ModelsV2(ctx); err != nil {
		t.Fatalf("closed circuit failed: %v", err)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	srv, calls := flappingServer(t, 1<<30, http.StatusServiceUnavailable)
	c := NewClient(srv.URL)
	c.Breaker = BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond}
	clock := simclock.NewSimulated(time.Unix(0, 0))
	c.Clock = clock
	ctx := context.Background()

	if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want open on first failure (threshold 1)", err)
	}
	clock.Advance(40 * time.Millisecond)
	// The probe fails against the still-down server: reopen immediately.
	if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe err = %v, want circuit-open", err)
	}
	sent := calls.Load()
	if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("want fail-fast after failed probe")
	}
	if calls.Load() != sent {
		t.Fatal("reopened circuit let a request through before the cooldown")
	}
}

func TestBreakerRetryAfterSetsOpenDuration(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ErrorBody{Code: CodeOverloaded, Message: "shed"}})
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	// Tiny cooldown; the server's Retry-After: 1 must override it.
	c.Breaker = BreakerConfig{Threshold: 1, Cooldown: time.Millisecond}
	clock := simclock.NewSimulated(time.Unix(0, 0))
	c.Clock = clock
	ctx := context.Background()
	if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want circuit-open", err)
	}
	clock.Advance(20 * time.Millisecond) // far past Cooldown, well inside Retry-After
	if _, err := c.ModelsV2(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want still-open (Retry-After outranks Cooldown)", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

func TestBreakerDefinitiveAnswerCloses(t *testing.T) {
	// 404 is a healthy server's answer: it must reset the failure streak.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n%2 == 1 {
			writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ErrorBody{Code: CodeOverloaded, Message: "shed"}})
			return
		}
		writeJSON(w, http.StatusNotFound, errorEnvelope{Error: ErrorBody{Code: CodeNotFound, Message: "nope"}})
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Breaker = BreakerConfig{Threshold: 3, Cooldown: time.Second}
	ctx := context.Background()
	// Alternating 503/404 never accumulates 3 consecutive failures.
	for i := 0; i < 10; i++ {
		if _, err := c.ModelsV2(ctx); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d: circuit opened despite interleaved definitive answers", i)
		}
	}
	if got := calls.Load(); got != 10 {
		t.Fatalf("server saw %d requests, want all 10", got)
	}
}

// TestBreakerConcurrentFlappingServer exercises the breaker lifecycle from
// many goroutines against a flapping server under -race: it must open
// (bounding the requests that reach the server), half-open with exactly one
// probe per cooldown, and close once the server heals — without leaking
// goroutines.
func TestBreakerConcurrentFlappingServer(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			writeJSON(w, http.StatusOK, ModelsResponseV2{})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ErrorBody{Code: CodeOverloaded, Message: "shed"}})
	}))

	c := NewClient(srv.URL)
	c.Retry = RetryConfig{MaxAttempts: 2}
	c.Breaker = BreakerConfig{Threshold: 5, Cooldown: 20 * time.Millisecond}

	const workers = 8
	var wg sync.WaitGroup
	var successes, fastFails atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.ModelsV2(context.Background())
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, ErrCircuitOpen):
					fastFails.Add(1)
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond) // unhealthy phase: breaker cycles open/probe
	unhealthyCalls := calls.Load()
	healthy.Store(true)
	time.Sleep(150 * time.Millisecond) // healthy phase: probe closes the circuit
	close(stop)
	wg.Wait()
	srv.Close()

	if fastFails.Load() == 0 {
		t.Error("no fail-fast rejections — the breaker never opened")
	}
	if successes.Load() == 0 {
		t.Error("no successes after recovery — the breaker never reclosed")
	}
	// While unhealthy, ~150ms/20ms cooldowns ≈ 8 probe windows; with the
	// opening streaks that bounds server traffic far below the thousands an
	// unbroken 8-worker hammer would deliver. Allow a generous margin.
	if unhealthyCalls > 200 {
		t.Errorf("server saw %d requests while down; breaker did not bound the hammering", unhealthyCalls)
	}

	// No goroutine leaks: the client spawns none of its own, so the count
	// must settle back to (roughly) the pre-test level once transports idle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before+2 {
		t.Errorf("goroutines: %d before, %d after — leak", before, now)
	}
}

// TestClientIngestRetries429: the overload path of satellite ingest — a 429
// shed with Retry-After is retried under the existing backoff budget and
// succeeds once admission re-opens.
func TestClientIngestRetries429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: ErrorBody{Code: CodeOverloaded, Message: "ingest shed"}})
			return
		}
		writeJSON(w, http.StatusOK, IngestResponse{Accepted: 1})
	}))
	t.Cleanup(srv.Close)

	c, clock := simClient(srv.URL, RetryConfig{MaxAttempts: 3}) // the Retry-After wait advances simulated time
	start := clock.Now()
	resp, err := c.Ingest(context.Background(), IngestRequest{
		Points: []IngestPoint{{ServerID: "s", TimeUnix: 0, Value: 1}},
	})
	if err != nil {
		t.Fatalf("ingest through 429 failed: %v", err)
	}
	if resp.Accepted != 1 || calls.Load() != 2 {
		t.Fatalf("accepted=%d calls=%d, want 1 accepted over 2 calls", resp.Accepted, calls.Load())
	}
	// The server's Retry-After paced the retry (~1s of simulated time), not
	// the client's own backoff — and no real second was slept.
	if elapsed := clock.Now().Sub(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry waited only %v; Retry-After: 1 must pace the 429 retry", elapsed)
	}
}

// TestClientIngestRespectsBudgetOn429: sustained 429s exhaust MaxElapsed
// instead of retrying forever.
func TestClientIngestRespectsBudgetOn429(t *testing.T) {
	srv, calls := flappingServer(t, 1<<30, http.StatusTooManyRequests)
	c, _ := simClient(srv.URL, RetryConfig{MaxAttempts: 100, MaxElapsed: 10 * retryBaseDelay})
	_, err := c.Ingest(context.Background(), IngestRequest{
		Points: []IngestPoint{{ServerID: "s", TimeUnix: 0, Value: 1}},
	})
	var apiErr *APIError
	if err == nil || !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want budget exhaustion wrapping the 429", err)
	}
	if got := calls.Load(); got < 2 || got >= 100 {
		t.Fatalf("server saw %d requests, want a few paced attempts", got)
	}
}
