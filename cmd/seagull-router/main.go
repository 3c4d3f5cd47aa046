// Command seagull-router fronts a region-sharded Seagull fleet: N
// seagull-serve replicas, each owning a consistent-hash shard of server IDs,
// behind one stateless routing process.
//
// Usage:
//
//	seagull-router -addr :8090 \
//	  -replica shard-a=http://10.0.0.1:8080 \
//	  -replica shard-b=http://10.0.0.2:8080 \
//	  -seed 42
//
// The router routes POST /v2/predict and /v2/ingest by server ID, splits
// POST /v2/predict/batch across shards and merges per-item results in
// request order, broadcasts ingest sweep clauses, aggregates GET /varz and
// GET /metrics fleet-wide, and round-robins the stateless endpoints
// (/v2/advise, /v2/models). Requests to a draining replica are
// retried with jittered exponential backoff honoring Retry-After
// (-retry-attempts, -retry-budget) behind a per-replica circuit breaker
// (-breaker-threshold, -breaker-cooldown).
//
// Every router configured with the same -seed and -replica set routes
// identically — the process holds no state, so run as many as you like.
//
// On SIGINT/SIGTERM the router stops accepting connections, waits up to
// -drain for in-flight requests, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seagull/internal/router"
	"seagull/internal/serving"
)

// replicaFlags collects repeated -replica name=url flags.
type replicaFlags []router.Replica

func (f *replicaFlags) String() string {
	parts := make([]string, len(*f))
	for i, r := range *f {
		parts[i] = r.Name + "=" + r.BaseURL
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*f = append(*f, router.Replica{Name: name, BaseURL: url})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seagull-router: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("seagull-router", flag.ExitOnError)
	var replicas replicaFlags
	fs.Var(&replicas, "replica", "replica as name=url (repeat per replica)")
	var (
		addr     = fs.String("addr", ":8090", "listen address")
		seed     = fs.Uint64("seed", 0, "shard-map seed (identical on every router)")
		attempts = fs.Int("retry-attempts", 4, "upstream attempts per request (1 disables retries)")
		budget   = fs.Duration("retry-budget", 2*time.Second, "total upstream retry budget per request")
		brkN     = fs.Int("breaker-threshold", 5, "consecutive failures opening a replica's circuit (-1 disables)")
		brkCool  = fs.Duration("breaker-cooldown", time.Second, "open-circuit cooldown before the half-open probe")
		timeout  = fs.Duration("timeout", 60*time.Second, "upstream HTTP timeout")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(replicas) == 0 {
		return errors.New("at least one -replica name=url is required")
	}

	rt, err := router.New(router.Config{
		Seed:     *seed,
		Replicas: replicas,
		Retry:    serving.RetryConfig{MaxAttempts: *attempts, MaxElapsed: *budget},
		Breaker:  serving.BreakerConfig{Threshold: *brkN, Cooldown: *brkCool},
		HTTP:     &http.Client{Timeout: *timeout},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("routing %d replicas (seed %d) on %s", len(replicas), *seed, ln.Addr())
	for _, r := range replicas {
		log.Printf("  replica %s -> %s", r.Name, r.BaseURL)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("draining (up to %v)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	log.Printf("drained, bye")
	return nil
}
