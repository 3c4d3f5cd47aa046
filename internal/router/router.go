// Package router is the stateless front of the region-sharded fleet: N
// serving replicas, each owning a consistent-hash shard of server IDs (its
// shard's ingest rings, WAL, snapshots, sweeper and warm pools), fronted by
// this thin process that routes by server ID and aggregates observability
// fleet-wide.
//
// The router holds no durable state — ownership is a pure function of the
// shard map's (seed, membership), so any number of router processes
// configured identically route identically, and a router restart loses
// nothing. Per-replica requests ride the serving client's retry loop
// (jittered exponential backoff honoring Retry-After) and per-path circuit
// breaker, so a draining replica is retried until its replacement is up and
// a dead one fails fast instead of absorbing every request's timeout.
//
// Routing semantics per endpoint:
//
//   - POST /v2/predict: routed to the owner of server_id (mandatory for
//     live_history — the live window lives in the owner's rings); requests
//     without a server_id are stateless and round-robin across replicas.
//   - POST /v2/predict/batch: split by item owner, fanned out concurrently,
//     per-item results merged back in request order. An unavailable replica
//     fails only its own items; one that refuses its items (a 4xx) answers
//     the whole batch.
//   - POST /v2/ingest: servers and points split by owner; the optional
//     sweep clause broadcasts to every replica (each sweeps its own ring);
//     tallies are summed.
//   - GET /varz, /metrics: aggregated fleet-wide (per-replica documents
//     plus summed fleet totals / router counters).
//   - GET /v2/predictions/{region}/{week}: fanned out and merged by server
//     (replicas share the document store in-region, but a refresher upserts
//     only its own shard, so the union is the fleet view).
//   - POST /v2/advise, GET /v2/models: stateless; round-robin with failover
//     to the next replica.
//
// The router decodes no request. One scan (scan.go) checks each body's
// syntax and reads its routing fields in the same pass; a routed predict
// goes upstream as received, and each owner of a batch or ingest receives
// its items' bytes as received.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seagull/internal/jsonbody"
	"seagull/internal/obs"
	"seagull/internal/serving"
	"seagull/internal/shard"
	"seagull/internal/simclock"
)

// Replica names one serving replica and its base URL.
type Replica struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

// Config parameterizes a Router. The zero value of the optional fields
// selects production defaults. Inbound bodies are bounded by the replicas'
// own limit, serving.MaxBodyBytes.
type Config struct {
	// Seed fixes the shard map. Every router (and every tool that needs to
	// compute ownership offline) must share it.
	Seed uint64
	// Replicas is the initial membership. At least one is required.
	Replicas []Replica
	// Retry bounds the per-replica retry loop; the zero value enables 4
	// attempts with a 2s budget — sized for the drain window of a rolling
	// restart.
	Retry serving.RetryConfig
	// Breaker parameterizes the per-replica, per-path circuit breaker; the
	// zero value opens after 5 consecutive retryable failures with the
	// client's default cooldown. Threshold < 0 disables it.
	Breaker serving.BreakerConfig
	// HTTP is the upstream transport; nil builds one with a 60s timeout.
	HTTP *http.Client
	// Clock paces retries, breaker cooldowns and uptime; nil means the wall
	// clock.
	Clock simclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 4
		if c.Retry.MaxElapsed == 0 {
			c.Retry.MaxElapsed = 2 * time.Second
		}
	}
	if c.Breaker.Threshold == 0 {
		c.Breaker.Threshold = 5
	} else if c.Breaker.Threshold < 0 {
		c.Breaker.Threshold = 0
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{Timeout: 60 * time.Second}
	}
	c.Clock = simclock.Or(c.Clock)
	return c
}

// replicaVars is one replica's forwarding counters. They survive membership
// changes, so a drain/rejoin keeps its history.
type replicaVars struct {
	forwards atomic.Uint64
	failures atomic.Uint64
}

// Router fronts the replica fleet. Construct with New; it is an
// http.Handler.
type Router struct {
	cfg  Config
	mux  *http.ServeMux
	http *obs.HTTP // per-route accounting and request IDs, shared with the replicas

	// mu guards the membership view: the shard map and the client set swap
	// together, atomically from a request's point of view.
	mu      sync.RWMutex
	smap    *shard.Map
	clients map[string]*serving.Client

	rr atomic.Uint64 // round-robin cursor for stateless forwards

	repMu    sync.Mutex
	replicas map[string]*replicaVars
}

// New builds a router over the configured replicas.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		http:     obs.NewHTTP(cfg.Clock, nil),
		replicas: map[string]*replicaVars{},
	}
	names := make([]string, 0, len(cfg.Replicas))
	clients := make(map[string]*serving.Client, len(cfg.Replicas))
	for _, rep := range cfg.Replicas {
		if rep.BaseURL == "" {
			return nil, fmt.Errorf("router: replica %q has no base URL", rep.Name)
		}
		if _, dup := clients[rep.Name]; dup {
			return nil, fmt.Errorf("router: duplicate replica %q", rep.Name)
		}
		names = append(names, rep.Name)
		clients[rep.Name] = rt.newClient(rep.BaseURL)
	}
	smap, err := shard.New(cfg.Seed, names)
	if err != nil {
		return nil, err
	}
	rt.smap, rt.clients = smap, clients

	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rt.http.Instrument(pattern, h))
	}
	handle("GET /healthz", rt.handleHealth)
	handle("GET /readyz", rt.handleReady)
	handle("GET /varz", rt.handleVarz)
	handle("GET /metrics", rt.handleMetrics)
	handle("POST /v2/predict", rt.handlePredict)
	handle("POST /v2/predict/batch", rt.handleBatch)
	handle("POST /v2/ingest", rt.handleIngest)
	handle("POST /v2/advise", rt.forward(http.MethodPost, "/v2/advise"))
	handle("GET /v2/models", rt.forward(http.MethodGet, "/v2/models"))
	handle("GET /v2/predictions/{region}/{week}", rt.handlePredictions)
	rt.mux = mux
	return rt, nil
}

// newClient builds the retry/breaker-armed client for one replica URL.
func (rt *Router) newClient(baseURL string) *serving.Client {
	return &serving.Client{
		BaseURL: baseURL,
		HTTP:    rt.cfg.HTTP,
		Retry:   rt.cfg.Retry,
		Breaker: rt.cfg.Breaker,
		Clock:   rt.cfg.Clock,
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Handler returns the router as an http.Handler (itself).
func (rt *Router) Handler() http.Handler { return rt }

// Map returns the current shard map.
func (rt *Router) Map() *shard.Map {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.smap
}

// Members returns the current replica names, sorted.
func (rt *Router) Members() []string { return rt.Map().Replicas() }

// Join adds a replica to the membership. Only the keys the newcomer wins
// move to it (≈ 1/(N+1) of the fleet); every other assignment is untouched.
func (rt *Router) Join(rep Replica) error {
	if rep.BaseURL == "" {
		return fmt.Errorf("router: replica %q has no base URL", rep.Name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	smap, err := rt.smap.WithJoined(rep.Name)
	if err != nil {
		return err
	}
	clients := make(map[string]*serving.Client, len(rt.clients)+1)
	for n, c := range rt.clients {
		clients[n] = c
	}
	clients[rep.Name] = rt.newClient(rep.BaseURL)
	rt.smap, rt.clients = smap, clients
	return nil
}

// Leave removes a replica from the membership; only the keys it owned move.
// A fresh client is built if the replica later rejoins, so a stale open
// breaker never outlives the member that tripped it.
func (rt *Router) Leave(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	smap, err := rt.smap.WithLeft(name)
	if err != nil {
		return err
	}
	clients := make(map[string]*serving.Client, len(rt.clients)-1)
	for n, c := range rt.clients {
		if n != name {
			clients[n] = c
		}
	}
	rt.smap, rt.clients = smap, clients
	return nil
}

// view snapshots the membership for one request.
func (rt *Router) view() (*shard.Map, map[string]*serving.Client) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.smap, rt.clients
}

// ownerClient resolves a server ID to its owning replica's client.
func (rt *Router) ownerClient(serverID string) (string, *serving.Client) {
	smap, clients := rt.view()
	name := smap.Owner(serverID)
	return name, clients[name]
}

// nextClient picks a replica for a stateless forward, round-robin.
func (rt *Router) nextClient(skip map[string]bool) (string, *serving.Client) {
	smap, clients := rt.view()
	names := smap.Replicas()
	n := len(names)
	start := int(rt.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		name := names[(start+i)%n]
		if skip[name] {
			continue
		}
		return name, clients[name]
	}
	return "", nil
}

// replicaVarsFor returns (creating once) the forwarding counters of one
// replica.
func (rt *Router) replicaVarsFor(name string) *replicaVars {
	rt.repMu.Lock()
	defer rt.repMu.Unlock()
	rv, ok := rt.replicas[name]
	if !ok {
		rv = &replicaVars{}
		rt.replicas[name] = rv
	}
	return rv
}

// observeForward records one upstream call's outcome.
func (rt *Router) observeForward(name string, err error) {
	rv := rt.replicaVarsFor(name)
	rv.forwards.Add(1)
	if err != nil {
		rv.failures.Add(1)
	}
}

// reply is one replica's answer to a scattered call.
type reply[T any] struct {
	name string
	val  T
	err  error
}

// scatter is the router's one fan-out: it calls every named replica
// concurrently and returns the replies in the order of names — callers pass
// shard-map order — so each merge is a serial loop and a pure function of
// the replies. Traffic passes rt.observeForward as observe; the readiness
// and varz probes pass nil, because a scrape is not a forward.
func scatter[T any](names []string, clients map[string]*serving.Client, observe func(string, error),
	call func(name string, c *serving.Client) (T, error)) []reply[T] {
	out := make([]reply[T], len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, err := call(name, clients[name])
			if observe != nil {
				observe(name, err)
			}
			out[i] = reply[T]{name: name, val: val, err: err}
		}()
	}
	wg.Wait()
	return out
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// ReadyStatus is the /readyz document: the router is ready only when every
// shard has a ready owner — partial coverage means routed requests would
// fail for a deterministic slice of the fleet.
type ReadyStatus struct {
	Ready    bool            `json:"ready"`
	Replicas map[string]bool `json:"replicas"`
}

// Ready probes every replica's /readyz and reports fleet coverage.
func (rt *Router) Ready(ctx context.Context) ReadyStatus {
	smap, clients := rt.view()
	names := smap.Replicas()
	st := ReadyStatus{Ready: true, Replicas: make(map[string]bool, len(names))}
	probes := scatter(names, clients, nil, func(_ string, c *serving.Client) (bool, error) {
		return c.Ready(ctx), nil
	})
	for _, p := range probes {
		st.Replicas[p.name] = p.val
		if !p.val {
			st.Ready = false
		}
	}
	return st
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	st := rt.Ready(r.Context())
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}

// maxBodyBytes bounds inbound request bodies at the replicas' own limit. It
// is a variable only so that tests can lower it.
var maxBodyBytes int64 = serving.MaxBodyBytes

// readBody reads a bounded body whole, for a route that relays the bytes it
// received, and answers the client itself when it cannot.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := jsonbody.Read(w, r, maxBodyBytes)
	if err != nil {
		rt.badBody(w, err)
		return nil, false
	}
	return body, true
}

// badBody answers a body that could not be read or decoded: 413 over the
// size limit, 400 otherwise.
func (rt *Router) badBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, serving.CodeTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "malformed JSON: "+err.Error())
}

// upstreamContext is r's context carrying the request's ID — the one the
// instrument echoed or minted on w — so every replica call forwards it.
func upstreamContext(w http.ResponseWriter, r *http.Request) context.Context {
	return serving.WithRequestID(r.Context(), w.Header().Get("X-Request-Id"))
}

// writeUpstream translates an upstream call failure into a response. A
// structured replica error passes through verbatim (status, code, message);
// a transport failure or an open breaker becomes a retryable 503 naming the
// replica, so a client (or an upstream router) treats the partial outage
// exactly like a drain window.
func writeUpstream(w http.ResponseWriter, replica string, err error) {
	var api *serving.APIError
	if errors.As(err, &api) {
		if api.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(api.RetryAfter.Seconds()+0.5)))
		}
		writeError(w, api.Status, api.Code, api.Message)
		return
	}
	w.Header().Set("Retry-After", "1")
	if errors.Is(err, serving.ErrCircuitOpen) {
		writeError(w, http.StatusServiceUnavailable, serving.CodeOverloaded,
			fmt.Sprintf("replica %s: %v", replica, err))
		return
	}
	writeError(w, http.StatusServiceUnavailable, serving.CodeOverloaded,
		fmt.Sprintf("replica %s unavailable: %v", replica, err))
}

// definitive reports whether err is a replica's refusal of the request
// itself — a structured 4xx other than 429, such as a bad request or a
// missing deployment — rather than a sign that the replica is unavailable.
func definitive(err error) bool {
	var api *serving.APIError
	return errors.As(err, &api) && api.Status < 500 && api.Status != http.StatusTooManyRequests
}

// upstreamErrorBody is writeUpstream's per-item form for batch merges.
func upstreamErrorBody(replica string, err error) *serving.ErrorBody {
	var api *serving.APIError
	if errors.As(err, &api) {
		return &serving.ErrorBody{Code: api.Code, Message: api.Message}
	}
	return &serving.ErrorBody{
		Code:    serving.CodeOverloaded,
		Message: fmt.Sprintf("replica %s unavailable: %v", replica, err),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code serving.ErrorCode, msg string) {
	writeJSON(w, status, struct {
		Error serving.ErrorBody `json:"error"`
	}{Error: serving.ErrorBody{Code: code, Message: msg}})
}
