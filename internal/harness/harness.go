// Package harness runs simulation work across a bounded pool of workers
// with deterministic result assembly and structured progress events.
//
// The pool is deliberately simple: Map collects results by input index, so
// the output of a parallel run is byte-identical to a sequential run
// regardless of worker count or completion order. Determinism then rests on
// two properties the rest of the repository guarantees: every simulation
// owns its seeded RNG (no shared mutable state between scenarios), and
// per-scenario seeds are derived from the root seed, never from execution
// order or wall-clock time.
//
// Memory stays bounded because each worker runs its jobs strictly
// sequentially: at most `workers` jobs of one Map call are alive, and a
// job that returns measured values rather than its simulator releases the
// simulator before the worker picks up the next index. The experiment
// suite puts every simulation of every experiment through a single Map,
// so its worker count bounds the simulators alive in the whole suite.
package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request for n jobs: values <= 0 mean
// runtime.GOMAXPROCS(0), and the count never exceeds n (nor drops below 1).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn for every index in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns the results in index order.
// Indices are claimed dynamically, so long jobs do not convoy short ones,
// but the assembled output is independent of completion order.
//
// The first failure cancels the context passed to the remaining jobs and
// Map returns an error — preferring the lowest-index job error over
// secondary cancellation errors, so the reported cause is stable. When the
// parent context is cancelled, in-flight jobs are interrupted and Map
// returns the context's error.
//
//vet:alloc the parallel path's workers share ctx, so it moves to the heap once per call, not per job
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	//vet:alloc one result slice per call, not per job; the cluster's host advances get a zero-size one
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	w := Workers(workers, n)
	if w == 1 {
		// Sequential fast path: no goroutines, identical assembly order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			//vet:alloc the context is passed through, not converted: it is already an interface
			v, err := fn(ctx, i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	//vet:alloc the parallel path pays one derived context, error slice and goroutine set per call, not per job
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	//vet:alloc the parallel path pays one derived context, error slice and goroutine set per call, not per job
	errs := make([]error, n)
	//vet:alloc the workers share one job counter, moved to the heap once per call, not per job
	var next atomic.Int64
	//vet:alloc the workers share one WaitGroup, moved to the heap once per call, not per job
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		//vet:alloc the parallel path pays one derived context, error slice and goroutine set per call, not per job
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				//vet:alloc the context is passed through, not converted: it is already an interface
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	// Prefer a real job error over the cancellations it induced.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return out, err
		}
	}
	return out, first
}

// DeriveSeed deterministically derives an independent child seed from a
// root seed and a label path (an FNV-1a hash of the labels finalized with a
// splitmix64 round). Distinct label paths yield uncorrelated seed streams,
// and the result is never zero, so it can be fed to components that treat
// zero as "use the default seed".
func DeriveSeed(root uint64, labels ...string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= 1099511628211
		}
		h ^= 0xff // label separator keeps ("ab","c") != ("a","bc")
		h *= 1099511628211
	}
	z := root + 0x9e3779b97f4a7c15 + h
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}
