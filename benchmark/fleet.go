package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"seagull"
)

// routerSeed fixes the shard map, so the same server IDs land on the same
// replica on every run and every seed.
const routerSeed = 7

// replica is one serving process's worth of state, run in-process behind its
// own loopback listener.
type replica struct {
	name string
	sys  *seagull.System
	svc  *seagull.Service
	dur  *seagull.Durability // nil unless the workload streams
	stop context.CancelFunc  // stops the durability tickers
	srv  *http.Server
	url  string
	tap  *tap // nil in an untraced run
}

// httpFleet is the routed deployment the HTTP workloads drive: a stateless
// router in front of two replicas, three real TCP listeners.
type httpFleet struct {
	reps  []*replica
	rt    *routerT
	front *http.Server
	url   string
}

// newReplica builds one replica over the shared data directory with model
// deployed for region. stream attaches the ingestor, drift detector,
// refresher and a started durability manager, the way seagull-serve wires
// them; commit/snapshot cadence comes from dcfg.
func newReplica(name, dir, region, model string, stream bool, dcfg seagull.DurabilityConfig) (*replica, error) {
	sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: dir, Replica: name})
	if err != nil {
		return nil, err
	}
	sys.Registry.Deploy(deployTarget{Scenario: scenario, Region: region}, model, "benchmark")
	rep := &replica{name: name, sys: sys}
	cfg := seagull.ServiceConfig{}
	if stream {
		cfg.Ingestor, cfg.Drift, cfg.Refresher, cfg.Sweeper = sys.Stream(), sys.Drift(), sys.Refresher(), sys.Sweeper()
		rep.dur = sys.NewDurability(dcfg)
		if _, err := rep.dur.Recover(); err != nil {
			return nil, err
		}
		cfg.Durability = rep.dur
	}
	rep.svc = sys.Service(cfg)
	return rep, nil
}

// serve puts h behind a fresh loopback listener.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns when close() closes the server
	return srv, "http://" + ln.Addr().String(), nil
}

// newHTTPFleet starts listeners for the replicas and a router over them.
// With a recorder, the benchmark's span wrappers go around every Handler()
// and the router's upstream transport carries the span context across the
// hop; without one the handlers and the router's HTTP client are exactly the
// production ones.
func newHTTPFleet(reps []*replica, rec *recorder) (*httpFleet, error) {
	f := &httpFleet{reps: reps}
	cfg := routerConfig{Seed: routerSeed}
	for _, rep := range reps {
		var h http.Handler = rep.svc.Handler()
		if rec != nil {
			rep.tap = &tap{}
			h = &spanHandler{rec: rec, name: "serving", next: h, tap: rep.tap}
		}
		srv, url, err := serve(h)
		if err != nil {
			return nil, err
		}
		rep.srv, rep.url = srv, url
		cfg.Replicas = append(cfg.Replicas, routerReplica{Name: rep.name, BaseURL: url})
	}
	if rec != nil {
		cfg.HTTP = &http.Client{Timeout: 60 * time.Second, Transport: spanTransport{http.DefaultTransport}}
	}
	rt, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}
	f.rt = rt
	var h http.Handler = rt.Handler()
	if rec != nil {
		h = &spanHandler{rec: rec, name: "router", next: h, propagate: true}
	}
	f.front, f.url, err = serve(h)
	return f, err
}

// close stops the listeners and the replicas. The durability managers are
// stopped, not Closed: a workload that wants the final flush calls Close
// itself, and the ingest workload deliberately abandons them.
func (f *httpFleet) close() {
	if f.front != nil {
		_ = f.front.Close()
	}
	for _, rep := range f.reps {
		if rep.srv != nil {
			_ = rep.srv.Close()
		}
		if rep.stop != nil {
			rep.stop()
		}
		rep.svc.Close()
		_ = rep.sys.Close()
	}
}

// spanRef is the span context the router wrapper leaves in the request
// context for the upstream transport to forward.
type spanRef struct {
	call uint64
	id   int32
}

type spanKey struct{}

// spanHandler is the benchmark-owned wrapper around a public Handler(): one
// span per request, parented on the span named in the request headers.
type spanHandler struct {
	rec       *recorder
	name      string
	next      http.Handler
	propagate bool // leave the span in the context for spanTransport
	tap       *tap
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
	if parent == 0 || !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	call, _ := strconv.ParseUint(r.Header.Get(hdrCall), 10, 64)
	var cw *captureWriter
	if h.tap != nil {
		if body, ok := h.tap.wants(r); ok {
			cw = &captureWriter{ResponseWriter: w}
			w = cw
			defer func() { h.tap.add(r.URL.Path, body, cw.buf.Bytes()) }()
		}
	}
	id := h.rec.begin(h.name, call, int32(parent))
	if h.propagate {
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{call: call, id: id}))
	}
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
}

// spanTransport forwards the span context of a routed request to the replica
// it is sent to.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok && ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(hdrCall, strconv.FormatUint(ref.call, 10))
		req.Header.Set(hdrParent, strconv.Itoa(int(ref.id)))
	}
	return t.base.RoundTrip(req)
}

// tapLimit bounds the request/reply pairs a replica keeps per path for the
// probes to replay.
const tapLimit = 24

// exchange is one request as a replica saw it, with its reply.
type exchange struct{ req, resp []byte }

// tap keeps the first tapLimit exchanges per path of the traced window: the
// real inputs the probes replay into the layers.
type tap struct {
	mu     sync.Mutex
	byPath map[string][]exchange
}

// wants reports whether the request should be captured and, if so, reads its
// body and puts an equivalent reader back.
func (t *tap) wants(r *http.Request) ([]byte, bool) {
	t.mu.Lock()
	full := len(t.byPath[r.URL.Path]) >= tapLimit
	t.mu.Unlock()
	if full {
		return nil, false
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, true
}

func (t *tap) add(path string, req, resp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byPath == nil {
		t.byPath = map[string][]exchange{}
	}
	if len(t.byPath[path]) < tapLimit {
		t.byPath[path] = append(t.byPath[path], exchange{req: req, resp: append([]byte(nil), resp...)})
	}
}

func (t *tap) get(path string) []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byPath[path]
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// mustOwner returns the replica that owns serverID under the router's map.
func (f *httpFleet) mustOwner(serverID string) *replica {
	name := f.rt.Map().Owner(serverID)
	for _, rep := range f.reps {
		if rep.name == name {
			return rep
		}
	}
	panic(fmt.Sprintf("benchmark: no replica named %q", name))
}
