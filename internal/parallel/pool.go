// Package parallel is the Dask analog of the paper (Section 2.1, 6.1): a
// bounded worker pool used to partition work per server and process the
// partitions concurrently. The paper reports 3–4.6× speedups for accuracy
// evaluation; Figure 12(b)'s single-threaded vs parallel comparison runs on
// this pool.
//
// Concurrency contract: a Pool carries no per-run state, so one pool may be
// shared by any number of concurrent ForEach loops; item functions run on
// pool goroutines and must synchronize any shared writes themselves (the
// ForEachScratch variants hand each worker private scratch for exactly that
// reason). Item errors are collected, not cancelling — every index still
// runs; only context cancellation (ForEachCtx) stops new claims, with
// in-flight items finishing. Equivalence: the worker count affects wall
// clock only, never which indices run or how often —
// callers owning deterministic per-item work get deterministic aggregate
// results at any worker count.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrBadWorkers is returned when a non-positive worker count is requested.
var ErrBadWorkers = errors.New("parallel: worker count must be positive")

// Pool is a fixed-size worker pool. The zero value is not usable; call
// NewPool. A Pool carries no per-run state and may be reused and shared
// freely across experiments and goroutines.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given concurrency. workers ≤ 0 selects
// runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn(i) for every i in [0, n) across the pool's workers and
// blocks until all complete. The first error observed is returned (remaining
// items still run; partitioned accuracy evaluation must visit every server
// so we don't cancel). Panics in fn are recovered and reported as errors.
//
// Work is handed out as chunked index ranges claimed off a single atomic
// cursor — roughly four chunks per worker — rather than one channel send per
// item, so distribution overhead stays negligible even for micro-tasks.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	return p.forEachWorker(context.Background(), n, func(int) func(int) error { return fn })
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// workers stop claiming new index ranges (in-flight items finish — fn is
// never interrupted mid-item) and the context's error is returned. Unlike
// plain errors from fn, which do not stop the sweep, cancellation abandons
// the remaining items: a serving request whose client went away must not keep
// training models for servers nobody will read.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return p.forEachWorker(ctx, n, func(int) func(int) error { return fn })
}

// ForEachScratch is like Pool.ForEach but allocates one scratch value per
// worker via newScratch and passes that worker's scratch to every fn call it
// executes. This is the hook model-fitting loops use to reuse design-matrix
// and residual buffers across items without any locking.
func ForEachScratch[S any](p *Pool, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	return ForEachScratchCtx(context.Background(), p, n, newScratch, fn)
}

// ForEachScratchCtx is ForEachScratch with the cancellation semantics of
// ForEachCtx: per-worker scratch, and no new claims once ctx is done.
func ForEachScratchCtx[S any](ctx context.Context, p *Pool, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	return p.forEachWorker(ctx, n, func(int) func(int) error {
		scratch := newScratch()
		return func(i int) error { return fn(i, scratch) }
	})
}

// forEachWorker is the shared chunked dispatcher. makeFn runs once per worker
// (on that worker's goroutine for workers > 1) to build the item function,
// letting callers close over per-worker scratch state. Cancellation is
// observed between items on the single-worker path and between claims on the
// parallel path.
func (p *Pool) forEachWorker(ctx context.Context, n int, makeFn func(worker int) func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	// An already-dead context does no setup at all: makeFn can be expensive
	// (scratch allocation, warm-pool checkouts) and must not run for a
	// request that will process zero items.
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := min(p.workers, n)
	if workers == 1 {
		var firstErr error
		fn := makeFn(0)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if firstErr != nil {
					return firstErr
				}
				return err
			}
			if err := safeCall(fn, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return // cancelled before this worker's setup ran
			}
			fn := makeFn(w)
			for {
				if ctx.Err() != nil {
					return
				}
				// Fixed-size chunks off a single atomic cursor.
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					if err := safeCall(fn, i); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// safeCall shields the pool from panics in user functions, converting them
// to errors so one bad server partition cannot take the pipeline down.
func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map applies fn to every element of in concurrently and returns the results
// in input order. If any invocation fails, Map returns the first error and a
// nil slice.
func Map[T, R any](p *Pool, in []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	if err := MapInto(p, in, out, fn); err != nil {
		return nil, err
	}
	return out, nil
}

// MapInto is Map with a caller-provided result slice: out[i] receives fn(in[i])
// for every i, letting callers reuse one result buffer across repeated sweeps.
// len(out) must be at least len(in). Unlike Map, out keeps the results written
// before the first error.
func MapInto[T, R any](p *Pool, in []T, out []R, fn func(T) (R, error)) error {
	if len(out) < len(in) {
		return fmt.Errorf("parallel: MapInto out has %d slots for %d inputs", len(out), len(in))
	}
	return p.ForEach(len(in), func(i int) error {
		r, err := fn(in[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
}
