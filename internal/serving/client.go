package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"seagull/internal/simclock"
)

// APIError is a structured error decoded from a v2 error envelope.
// Undecodable bodies degrade to CodeInternal with the raw body as the
// message.
type APIError struct {
	Status  int
	Code    ErrorCode
	Message string
	// RetryAfter is the server's Retry-After hint, when the response carried
	// one (0 otherwise). The retry loop prefers it over its own backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("serving: %d %s: %s", e.Status, e.Code, e.Message)
}

// The retry backoff: the first retry waits about retryBaseDelay, and each
// further one doubles the wait up to retryMaxDelay. The actual sleep is
// uniformly jittered over [delay/2, delay) so synchronized clients do not
// re-converge on the recovering server. A response carrying a Retry-After
// header overrides the computed backoff — the server knows its own drain
// schedule better than the client does.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = time.Second
)

// RetryConfig bounds the client's retry loop. Retries target the drain
// window of a rolling restart: a server flips /readyz to draining and soon
// refuses connections, so a request may hit a transport error or a 503
// until the replacement is up. Every v2 request is safe to retry — predicts
// are pure, ingest appends are idempotent (first write per slot wins).
type RetryConfig struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// values below 2 disable retrying.
	MaxAttempts int
	// MaxElapsed is the total retry budget, measured from the first attempt:
	// when the next backoff would overrun it, the loop gives up immediately
	// instead of sleeping, so callers can bound worst-case latency. 0 means
	// no budget (retries bounded by MaxAttempts and ctx alone).
	MaxElapsed time.Duration
}

// Client is the typed Go client for the serving endpoints.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry, when MaxAttempts ≥ 2, retries requests that failed with a
	// transport error, a 503 or a 429 (the drain/restart and overload
	// signals) with jittered exponential backoff. The readiness probe
	// itself never retries — its job is to observe draining, not to wait
	// it out.
	Retry RetryConfig
	// Breaker, when Threshold > 0, adds a per-path circuit breaker: after
	// that many consecutive retryable failures the path fails fast (wrapped
	// ErrCircuitOpen) instead of hammering an overloaded or down endpoint,
	// then recovers through a single half-open probe after the cooldown (or
	// the server's Retry-After). Zero value: disabled.
	Breaker BreakerConfig
	// Clock paces retries and breaker cooldowns; nil means the wall clock.
	// Simulated-clock tests advance it instead of sleeping for real.
	Clock simclock.Clock

	brkMu sync.Mutex
	brks  map[string]*breaker
}

// NewClient returns a client for baseURL (no trailing slash required).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 60 * time.Second}}
}

// Do performs one JSON request against path under the client's full retry
// and circuit-breaker policy: it posts in (or gets, when in is nil) and
// decodes the response into out, converting non-200 responses into
// *APIError. in may be any marshalable value; a json.RawMessage is sent
// verbatim, and a *json.RawMessage out receives the reply bytes as read.
// Every typed method below, and the sharded router's relays, are built on
// it.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	switch in := in.(type) {
	case nil:
	case json.RawMessage:
		data = in
	default:
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	rc := c.Retry
	clock := simclock.Or(c.Clock)
	brk := c.breakerFor(path)
	cooldown := c.Breaker.Cooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	start := clock.Now()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if brk != nil {
			if berr := brk.allow(clock.Now()); berr != nil {
				if lastErr != nil {
					return fmt.Errorf("%w (last failure: %v)", berr, lastErr)
				}
				return berr
			}
		}
		err := c.doOnce(ctx, method, path, data, out)
		if err == nil || !retryable(err) {
			if brk != nil {
				// A definitive non-retryable answer (e.g. 404) also proves
				// the server is up; both close the circuit.
				brk.onSuccess()
			}
			return err
		}
		if brk != nil {
			var ra time.Duration
			if apiErr, ok := err.(*APIError); ok {
				ra = apiErr.RetryAfter
			}
			if brk.onFailure(c.Breaker.Threshold, cooldown, ra, clock.Now()) {
				// The circuit just opened: stop hammering this endpoint even
				// if the attempt budget has room.
				return fmt.Errorf("%w after consecutive failures: %v", ErrCircuitOpen, err)
			}
		}
		if attempt+1 >= rc.MaxAttempts {
			return err
		}
		lastErr = err
		delay := retryBaseDelay << attempt
		if delay > retryMaxDelay || delay <= 0 {
			delay = retryMaxDelay
		}
		// Uniform jitter over [delay/2, delay).
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		// A server-provided Retry-After outranks the computed backoff: it is
		// the drain schedule, not a guess.
		if apiErr, ok := err.(*APIError); ok && apiErr.RetryAfter > 0 {
			delay = apiErr.RetryAfter
		}
		if rc.MaxElapsed > 0 && clock.Now().Sub(start)+delay > rc.MaxElapsed {
			// The budget would expire mid-backoff; failing now keeps the
			// caller's worst-case latency bounded by MaxElapsed.
			return fmt.Errorf("serving: retry budget %v exhausted after %d attempts: %w",
				rc.MaxElapsed, attempt+1, lastErr)
		}
		if err := clock.Sleep(ctx, delay); err != nil {
			return fmt.Errorf("serving: retry abandoned after %d attempts: %w (last: %v)",
				attempt+1, err, lastErr)
		}
	}
}

// retryable reports whether an attempt's failure is a drain/restart or
// overload signal worth retrying: transport errors (connection
// refused/reset mid-restart), 503 (draining or shed) and 429 (paced ingest
// shed — the server's Retry-After tells the loop when). Other structured
// API errors are definitive.
func retryable(err error) bool {
	if apiErr, ok := err.(*APIError); ok {
		return apiErr.Status == http.StatusServiceUnavailable ||
			apiErr.Status == http.StatusTooManyRequests
	}
	return true // transport-level failure
}

// doOnce performs a single request attempt over the pre-marshalled body.
func (c *Client) doOnce(ctx context.Context, method, path string, data []byte, out any) error {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id, _ := ctx.Value(requestIDKey{}).(string); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *json.RawMessage:
		*out, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

type requestIDKey struct{}

// WithRequestID returns ctx carrying a request ID that every request the
// client sends under it forwards as X-Request-Id, so a replica's logs and
// traces join the caller's.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// decodeAPIError reads a failed response into an *APIError, preferring the
// v2 envelope and degrading to the raw body.
func decodeAPIError(resp *http.Response) error {
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Code: CodeInternal, Message: string(bytes.TrimSpace(data)), RetryAfter: retryAfter}
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or an HTTP
// date. Absent, malformed or already-elapsed values yield 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// --- typed methods ---

// PredictV2 posts a v2 predict request.
func (c *Client) PredictV2(ctx context.Context, req PredictRequestV2) (PredictResponseV2, error) {
	var out PredictResponseV2
	err := c.Do(ctx, http.MethodPost, "/v2/predict", req, &out)
	return out, err
}

// PredictBatch posts a batch of servers in one call.
func (c *Client) PredictBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.Do(ctx, http.MethodPost, "/v2/predict/batch", req, &out)
	return out, err
}

// Advise reviews a customer-selected backup window.
func (c *Client) Advise(ctx context.Context, req AdviseRequest) (AdviseResponse, error) {
	var out AdviseResponse
	err := c.Do(ctx, http.MethodPost, "/v2/advise", req, &out)
	return out, err
}

// ModelsV2 fetches the v2 deployment listing with pool statistics.
func (c *Client) ModelsV2(ctx context.Context) (ModelsResponseV2, error) {
	var out ModelsResponseV2
	err := c.Do(ctx, http.MethodGet, "/v2/models", nil, &out)
	return out, err
}

// Predictions fetches the stored pipeline predictions of one (region, week).
func (c *Client) Predictions(ctx context.Context, region string, week int) (PredictionsResponse, error) {
	var out PredictionsResponse
	err := c.Do(ctx, http.MethodGet, fmt.Sprintf("/v2/predictions/%s/%d", region, week), nil, &out)
	return out, err
}

// Ingest posts a telemetry batch to the stream layer. Safe to re-send on
// failure: appends are idempotent (replays count as duplicates). A 429 from
// admission control (ingest shed under overload) is retried under the same
// backoff budget as a drain 503, honoring the server's Retry-After pacing.
func (c *Client) Ingest(ctx context.Context, req IngestRequest) (IngestResponse, error) {
	var out IngestResponse
	err := c.Do(ctx, http.MethodPost, "/v2/ingest", req, &out)
	return out, err
}

// Varz fetches the operational counters document.
func (c *Client) Varz(ctx context.Context) (Varz, error) {
	var out Varz
	err := c.Do(ctx, http.MethodGet, "/varz", nil, &out)
	return out, err
}

// Ready reports whether the endpoint accepts new traffic (/readyz). It
// deliberately bypasses the retry loop: its job is to observe the draining
// state, not to wait it out.
func (c *Client) Ready(ctx context.Context) bool {
	err := c.doOnce(ctx, http.MethodGet, "/readyz", nil, nil)
	return err == nil
}

// Healthy reports whether the endpoint responds to /healthz; like Ready, a
// single un-retried probe.
func (c *Client) Healthy() bool {
	return c.doOnce(context.TODO(), http.MethodGet, "/healthz", nil, nil) == nil
}
