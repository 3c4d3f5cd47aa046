package serving

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seagull/internal/registry"
	"seagull/internal/simclock"
)

// simClient returns a client for url with the given retry policy whose
// backoff waits advance a simulated clock instead of sleeping.
func simClient(url string, rc RetryConfig) (*Client, *simclock.Simulated) {
	clock := simclock.NewSimulated(time.Unix(0, 0))
	clock.AutoAdvanceSleeps()
	c := NewClient(url)
	c.Retry = rc
	c.Clock = clock
	return c, clock
}

// flappingServer fails the first `failures` requests with the given status
// (or by dropping the connection when status is 0), then serves a valid
// empty v2 models response — a server mid rolling restart.
func flappingServer(t *testing.T, failures int64, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			if status == 0 {
				// Simulate a connection cut: hijack and close.
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Fatal("no hijacker")
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Fatal(err)
				}
				conn.Close()
				return
			}
			writeJSON(w, status, errorEnvelope{Error: ErrorBody{Code: CodeInternal, Message: "draining"}})
			return
		}
		writeJSON(w, http.StatusOK, ModelsResponseV2{})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestClientRetriesThrough503(t *testing.T) {
	srv, calls := flappingServer(t, 2, http.StatusServiceUnavailable)
	c, _ := simClient(srv.URL, RetryConfig{MaxAttempts: 5})
	if _, err := c.ModelsV2(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", got)
	}
}

func TestClientRetriesThroughConnectionDrop(t *testing.T) {
	srv, calls := flappingServer(t, 1, 0)
	c, _ := simClient(srv.URL, RetryConfig{MaxAttempts: 3})
	if _, err := c.ModelsV2(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}

func TestClientRetryBounded(t *testing.T) {
	srv, calls := flappingServer(t, 1<<30, http.StatusServiceUnavailable)
	c, _ := simClient(srv.URL, RetryConfig{MaxAttempts: 4})
	_, err := c.ModelsV2(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the final 503", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want exactly MaxAttempts=4", got)
	}
}

func TestClientNoRetryByDefault(t *testing.T) {
	srv, calls := flappingServer(t, 1, http.StatusServiceUnavailable)
	c := NewClient(srv.URL)
	if _, err := c.ModelsV2(context.Background()); err == nil {
		t.Fatal("default client must not retry")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

func TestClientNoRetryOnDefinitiveError(t *testing.T) {
	// 404 is a definitive answer, not a drain signal.
	srv, calls := flappingServer(t, 5, http.StatusNotFound)
	c, _ := simClient(srv.URL, RetryConfig{MaxAttempts: 5})
	if _, err := c.ModelsV2(context.Background()); err == nil {
		t.Fatal("404 should surface")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry on 404)", got)
	}
}

func TestClientRetryCancelDuringBackoff(t *testing.T) {
	srv, _ := flappingServer(t, 1<<30, http.StatusServiceUnavailable)
	// The simulated clock never advances on its own, so the first backoff
	// ends only through ctx.
	c := NewClient(srv.URL)
	c.Retry = RetryConfig{MaxAttempts: 10}
	c.Clock = simclock.NewSimulated(time.Unix(0, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ModelsV2(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v; backoff did not observe ctx", elapsed)
	}
}

// TestClientRetryAgainstReadyzDrain: the readiness probe stays retry-free so
// callers can observe the draining state the retry loop exists to ride out.
func TestClientRetryAgainstReadyzDrain(t *testing.T) {
	svc := NewService(registry.New(nil), nil, ServiceConfig{})
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	c, clock := simClient(srv.URL, RetryConfig{MaxAttempts: 5})

	svc.SetReady(false)
	start := clock.Now()
	if c.Ready(context.Background()) {
		t.Fatal("draining service reported ready")
	}
	if elapsed := clock.Now().Sub(start); elapsed != 0 {
		t.Fatalf("Ready() backed off for %v; it must not retry", elapsed)
	}
	svc.SetReady(true)
	if !c.Ready(context.Background()) {
		t.Fatal("ready service reported draining")
	}
}

// TestClientHonorsRetryAfter: a 503 carrying a Retry-After header overrides
// the client's own backoff — the server's drain schedule wins.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: ErrorBody{Code: CodeInternal, Message: "draining"}})
			return
		}
		writeJSON(w, http.StatusOK, ModelsResponseV2{})
	}))
	t.Cleanup(srv.Close)

	c, clock := simClient(srv.URL, RetryConfig{MaxAttempts: 3})
	start := clock.Now()
	if _, err := c.ModelsV2(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != time.Second {
		t.Fatalf("retry waited %v; Retry-After: 1 should have set the backoff to 1s", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}

// TestClientRetryBudgetExhaustion: when the next backoff would overrun
// MaxElapsed, the client fails immediately instead of sleeping — bounding the
// caller's worst-case latency mid-backoff rather than at the next attempt.
func TestClientRetryBudgetExhaustion(t *testing.T) {
	srv, calls := flappingServer(t, 1<<30, http.StatusServiceUnavailable)
	// The first backoff (at least half of retryBaseDelay) against a budget
	// below it: the very first backoff blows the budget, so the loop must
	// give up after one attempt without sleeping.
	c, clock := simClient(srv.URL, RetryConfig{MaxAttempts: 10, MaxElapsed: retryBaseDelay / 4})
	start := clock.Now()
	_, err := c.ModelsV2(context.Background())
	elapsed := clock.Now().Sub(start)
	if err == nil {
		t.Fatal("want budget-exhaustion error, got success")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want a retry-budget message", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503 *APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (budget dies before the first sleep)", got)
	}
	if elapsed != 0 {
		t.Fatalf("exhaustion slept %v; the client must not sleep into a blown budget", elapsed)
	}
}

// TestClientRetryBudgetMidBackoff: a budget wide enough for a couple of
// attempts still cuts the loop off before MaxAttempts.
func TestClientRetryBudgetMidBackoff(t *testing.T) {
	srv, calls := flappingServer(t, 1<<30, http.StatusServiceUnavailable)
	c, clock := simClient(srv.URL, RetryConfig{MaxAttempts: 100, MaxElapsed: 10 * retryBaseDelay})
	start := clock.Now()
	_, err := c.ModelsV2(context.Background())
	elapsed := clock.Now().Sub(start)
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want a retry-budget message", err)
	}
	if got := calls.Load(); got < 2 || got >= 100 {
		t.Fatalf("server saw %d requests, want a few attempts then budget exhaustion", got)
	}
	if elapsed > c.Retry.MaxElapsed {
		t.Fatalf("exhaustion took %v, want within the %v budget", elapsed, c.Retry.MaxElapsed)
	}
}

// TestDoRawMessageVerbatim: a json.RawMessage argument reaches the server
// byte for byte (neither compacted nor HTML-escaped), and a
// *json.RawMessage result receives the reply bytes as they were read.
func TestDoRawMessageVerbatim(t *testing.T) {
	const reply = `{"b" : "<c>"}` + "\n"
	var got atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got.Store(string(body))
		io.WriteString(w, reply)
	}))
	defer srv.Close()
	var out json.RawMessage
	in := json.RawMessage(`{"a" : "<b>"}`)
	if err := NewClient(srv.URL).Do(context.Background(), http.MethodPost, "/x", in, &out); err != nil {
		t.Fatal(err)
	}
	if got.Load() != string(in) {
		t.Errorf("server received %q, want %q", got.Load(), in)
	}
	if string(out) != reply {
		t.Errorf("reply %q, want %q", out, reply)
	}
}
