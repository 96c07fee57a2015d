package serve

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
)

// Admission and retry constants. The retry policy is the experiment
// scheduler's default: a transient failure is retried twice, backing off
// from 5ms, capped at 2s.
const (
	defaultQueueSize = 1024
	cellRetries      = 2
	retryBackoff     = 5 * time.Millisecond
	maxRetryBackoff  = 2 * time.Second
)

// gate admits invocation requests onto a bounded set of compute slots in
// front of the experiment layer's CellCache. At most cap(slots) requests
// compute at once and at most cap(admit)-cap(slots) more wait for a slot;
// the rest are shed with overloaded rather than queued without bound. The
// gate does no grouping of its own: concurrent requests for one cell share
// one simulation through CellCache.Invoke's single-flight, which also makes
// served results bit-identical to the batch pipeline's by construction.
//
// Submit-vs-Close is made safe with an RWMutex around admission: Submit
// holds the read lock while it takes an admission token and registers the
// computation on the WaitGroup, Close takes the write lock to flip closed,
// so no computation is admitted after Close starts waiting.
type gate struct {
	cache  *experiments.CellCache
	env    experiments.CellEnv
	faults *faults.Plan

	admit   chan struct{} // one token per computing or waiting request
	slots   chan struct{} // one token per computing request
	waiting atomic.Int64  // admitted requests waiting for a slot

	mu        sync.RWMutex
	closed    bool
	computing sync.WaitGroup

	mBatched   *obs.Counter
	mBatches   *obs.Counter
	mCacheHits *obs.Counter
	mRetries   *obs.Counter
	mFailures  *obs.Counter
}

// gateResult is one computation's outcome.
type gateResult struct {
	cell   *experiments.ServedCell
	cached bool
	err    error
}

// newGate builds a gate with workers compute slots and room for queue
// waiting requests, and registers its metric family into reg.
func newGate(cache *experiments.CellCache, env experiments.CellEnv, plan *faults.Plan, workers, queue int, reg *obs.Registry) *gate {
	g := &gate{
		cache:  cache,
		env:    env,
		faults: plan,
		admit:  make(chan struct{}, workers+queue),
		slots:  make(chan struct{}, workers),
	}
	l := obs.L("component", "serve")
	g.mBatched = reg.Counter("serve.batched_requests", l)
	g.mBatches = reg.Counter("serve.batches", l)
	g.mCacheHits = reg.Counter("serve.cell_cache_hits", l)
	g.mRetries = reg.Counter("serve.cell_retries", l)
	g.mFailures = reg.Counter("serve.cell_failures", l)
	reg.GaugeFunc("serve.queue_depth", l, func() float64 { return float64(g.waiting.Load()) })
	return g
}

// Submit admits one request and blocks until its cell computes, the context
// expires, or the gate is closed. On success it returns the served cell and
// whether CellCache already held it. Failures come back as *ErrorEnvelope:
// overloaded when every slot and queue place is taken, shutting-down after
// Close, deadline on context expiry (the computation still completes and
// warms the cache for a retry), internal for simulation errors and panics.
func (g *gate) Submit(ctx context.Context, spec experiments.CellSpec) (*experiments.ServedCell, bool, *ErrorEnvelope) {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return nil, false, envelope(CodeShuttingDown, "server is draining")
	}
	select {
	case g.admit <- struct{}{}:
	default:
		g.mu.RUnlock()
		return nil, false, envelope(CodeOverloaded, "admission full (%d computing or waiting)", cap(g.admit))
	}
	g.computing.Add(1)
	g.mu.RUnlock()
	g.mBatched.Inc()

	// Buffered so the computation delivers without blocking even after the
	// caller gave up on its deadline.
	done := make(chan gateResult, 1)
	go func() {
		defer func() { <-g.admit; g.computing.Done() }()
		g.waiting.Add(1)
		g.slots <- struct{}{}
		g.waiting.Add(-1)
		cell, cached, err := g.run(spec)
		<-g.slots
		if err != nil {
			g.mFailures.Inc()
		}
		done <- gateResult{cell: cell, cached: cached, err: err}
	}()

	select {
	case r := <-done:
		if r.err != nil {
			return nil, false, envelope(CodeInternal, "%v", r.err)
		}
		return r.cell, r.cached, nil
	case <-ctx.Done():
		return nil, false, envelope(CodeDeadline, "request deadline exceeded: %v", context.Cause(ctx))
	}
}

// Close stops admission and blocks until every admitted computation has
// finished, including those whose callers already gave up — the SIGTERM
// drain. Safe to call more than once.
func (g *gate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.computing.Wait()
}

// run executes one cell with fault injection, panic isolation, and
// transient retry — the serving counterpart of the experiment scheduler's
// supervise loop.
func (g *gate) run(spec experiments.CellSpec) (cell *experiments.ServedCell, cached bool, err error) {
	site := faults.Site{Experiment: "serve", Workload: spec.Workload.Name, Config: string(spec.Config)}
	for attempt := 1; ; attempt++ {
		cell, cached, err = g.attempt(site, spec)
		if err == nil || attempt > cellRetries || !faults.IsTransient(err) {
			return cell, cached, err
		}
		g.mRetries.Inc()
		time.Sleep(faults.Backoff(retryBackoff, maxRetryBackoff, attempt))
	}
}

// attempt fires the injection plan and then asks the cache. Injected faults
// fire before the cache lookup, so an injected failure can never poison a
// cached result.
func (g *gate) attempt(site faults.Site, spec experiments.CellSpec) (cell *experiments.ServedCell, cached bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &faults.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := g.faults.Fire(context.Background(), site); err != nil {
		return nil, false, err
	}
	cell, cached, err = g.cache.Invoke(spec, g.env)
	if cached {
		g.mCacheHits.Inc()
	} else {
		g.mBatches.Inc()
	}
	return cell, cached, err
}
