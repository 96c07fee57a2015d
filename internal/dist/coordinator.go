package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
)

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// Addrs are the worker addresses (host:port). Required, non-empty.
	Addrs []string
	// Slots bounds concurrent in-flight tasks per worker (default 4). The
	// experiment scheduler above already bounds total in-flight cells at
	// Options.Parallel; slots shape how that budget spreads across the
	// fleet.
	Slots int
	// Client is the HTTP client for task calls and health probes (default:
	// no client-side timeout — cells are seconds of CPU and the per-attempt
	// deadline is the scheduler's CellTimeout, carried by the request
	// context). Wrap its transport with faults.NewTransport to inject
	// network chaos.
	Client *http.Client
	// MaxDispatchRounds bounds how many fleet-wide dispatch rounds one
	// cell gets before a transient failure surfaces to the caller
	// (default 12; 1 = surface after the first round). Within a round a
	// task fails over across every admitted worker; between rounds
	// Remote waits on the package backoff while the supervisor restarts
	// and the prober re-admits workers. Infrastructure failures are the
	// dist layer's to absorb: a surfaced retry would mark the cell
	// "retried" in the result document and break byte-identity with a
	// fault-free run.
	MaxDispatchRounds int
}

// quarantineAfter is how many consecutive worker-owned failures quarantine
// a worker; a success in between starts the count over.
const quarantineAfter = 3

// probeTimeout bounds one /v1/health probe.
const probeTimeout = 2 * time.Second

// backoff is the package's one retry schedule — dispatch rounds, probes of
// a quarantined worker, and supervisor restarts all wait backoff(n) before
// their n-th try.
func backoff(n int) time.Duration {
	return faults.Backoff(50*time.Millisecond, 2*time.Second, n)
}

// task is one queued cell: the wire request plus the channel its waiting
// RemoteFunc call blocks on. A task is either in exactly one queue or held
// by exactly one runner, so at most one attempt is ever in flight and the
// holder alone may touch tried or deliver the result; handing the task to
// a queue (under Coordinator.mu) passes that right on.
type task struct {
	ctx  context.Context
	req  TaskRequest
	done chan taskResult // buffered: the one result never blocks
	// tried marks workers whose attempt failed, so each worker attempts a
	// task at most once per coordinator round — a dead worker's runners
	// cannot burn a task's failover budget by re-stealing it.
	tried []bool
}

type taskResult struct {
	payload experiments.CellPayload
	err     error
}

func (t *task) finish(p experiments.CellPayload, err error) {
	t.done <- taskResult{payload: p, err: err}
}

// workerState is the coordinator's view of one worker. fails counts its
// consecutive worker-owned failures; reaching quarantineAfter sets
// quarantined, and only a probe answering "ok" clears it. mu is a leaf
// lock (never held while acquiring another).
type workerState struct {
	addr  string
	tasks obs.Counter

	mu          sync.Mutex
	fails       int
	quarantined bool
}

// failure records a worker-owned failure and reports whether it
// quarantined the worker.
func (w *workerState) failure() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.quarantined {
		return false
	}
	w.fails++
	w.quarantined = w.fails >= quarantineAfter
	return w.quarantined
}

// success records an attempt the worker answered coherently.
func (w *workerState) success() {
	w.mu.Lock()
	w.fails = 0
	w.mu.Unlock()
}

func (w *workerState) readmit() {
	w.mu.Lock()
	w.fails, w.quarantined = 0, false
	w.mu.Unlock()
}

func (w *workerState) admitted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.quarantined
}

// health renders admission for the dist.worker_health gauge: 1 admitted,
// 0 quarantined.
func (w *workerState) health() float64 {
	if w.admitted() {
		return 1
	}
	return 0
}

// Coordinator shards cells across a worker fleet. Each worker owns a FIFO
// queue; a cell's home queue is its key hash modulo fleet size, so a rerun
// of the same sweep lands each cell on the same worker and that worker's
// in-process cache serves repeats. Runner goroutines (Slots per worker)
// drain their own queue first and steal from the longest other queue when
// idle — a straggler workload queues behind nothing. A failed attempt
// fails over to an untried admitted worker; when none is left the round
// ends and Remote re-dispatches after a backoff. quarantineAfter
// consecutive failures take a worker out of dispatch, and a prober
// re-admits it on /v1/health evidence. A hung but live worker is bounded
// by the cell's own deadline (the scheduler's CellTimeout).
type Coordinator struct {
	opts    CoordinatorOptions
	workers []*workerState
	client  *http.Client

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*task
	closed bool
	wg     sync.WaitGroup
	stopc  chan struct{}

	mTasks         obs.Counter
	mSteals        obs.Counter
	mFailovers     obs.Counter
	mFailures      obs.Counter
	mQuarantines   obs.Counter
	mProbes        obs.Counter
	mProbeFailures obs.Counter
	mReadmits      obs.Counter
}

// NewCoordinator starts a coordinator over the given workers and its
// runner goroutines. Close releases them.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker address")
	}
	if opts.Slots <= 0 {
		opts.Slots = 4
	}
	if opts.MaxDispatchRounds <= 0 {
		opts.MaxDispatchRounds = 12
	}
	c := &Coordinator{
		opts:   opts,
		client: opts.Client,
		queues: make([][]*task, len(opts.Addrs)),
		stopc:  make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.cond = sync.NewCond(&c.mu)
	for _, addr := range opts.Addrs {
		c.workers = append(c.workers, &workerState{addr: addr})
	}
	for i := range c.workers {
		for s := 0; s < opts.Slots; s++ {
			c.wg.Add(1)
			go c.runner(i)
		}
	}
	return c, nil
}

// RegisterMetrics exports the coordinator's counters and per-worker health
// gauges on reg. dist.worker_health is 1 for an admitted worker and 0 for
// a quarantined one.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	l := obs.L("component", "dist")
	reg.CounterFunc("dist.tasks", l, c.mTasks.Value)
	reg.CounterFunc("dist.steals", l, c.mSteals.Value)
	reg.CounterFunc("dist.failovers", l, c.mFailovers.Value)
	reg.CounterFunc("dist.worker_failures", l, c.mFailures.Value)
	reg.CounterFunc("dist.worker_quarantines", l, c.mQuarantines.Value)
	reg.CounterFunc("dist.probes", l, c.mProbes.Value)
	reg.CounterFunc("dist.probe_failures", l, c.mProbeFailures.Value)
	reg.CounterFunc("dist.worker_readmits", l, c.mReadmits.Value)
	for _, w := range c.workers {
		wl := obs.L("component", "dist", "worker", w.addr)
		reg.GaugeFunc("dist.worker_health", wl, w.health)
		reg.CounterFunc("dist.worker_tasks", wl, w.tasks.Value)
	}
}

// Stats returns the coordinator's dispatch totals (tasks completed, queue
// steals, failovers).
func (c *Coordinator) Stats() (tasks, steals, failovers uint64) {
	return c.mTasks.Value(), c.mSteals.Value(), c.mFailovers.Value()
}

// HealthStats is the self-healing layer's counter snapshot.
type HealthStats struct {
	Failures      uint64 // failed worker attempts
	Quarantines   uint64 // workers taken out of dispatch
	Probes        uint64 // health probes sent
	ProbeFailures uint64 // probes that failed
	Readmits      uint64 // quarantined workers re-admitted by a probe
}

// Health returns the self-healing counters.
func (c *Coordinator) Health() HealthStats {
	return HealthStats{
		Failures:      c.mFailures.Value(),
		Quarantines:   c.mQuarantines.Value(),
		Probes:        c.mProbes.Value(),
		ProbeFailures: c.mProbeFailures.Value(),
		Readmits:      c.mReadmits.Value(),
	}
}

// WorkersHealthy reports whether no worker is quarantined — the chaos
// harness polls it to assert a restarted worker was re-admitted.
func (c *Coordinator) WorkersHealthy() bool {
	for _, w := range c.workers {
		if !w.admitted() {
			return false
		}
	}
	return true
}

// Close stops the runners and the probers. Queued tasks fail with a closed
// error; callers should Close only after the sweep's scheduler has drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stopc)
	var orphans []*task
	for i, q := range c.queues {
		orphans = append(orphans, q...)
		c.queues[i] = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, t := range orphans {
		t.finish(experiments.CellPayload{}, fmt.Errorf("dist: coordinator closed"))
	}
	c.wg.Wait()
}

// kick wakes every idle runner so it re-evaluates admission and queues.
// Taking the lock around Broadcast closes the check-then-wait race with
// runners.
func (c *Coordinator) kick() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// home shards a cell key onto a worker index.
func (c *Coordinator) home(key string) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32()) % len(c.workers)
}

// Remote returns the RemoteFunc to install on the sweep's cell cache
// (experiments.CellCache.SetRemote): each call ships one cell to the fleet
// and blocks until it is computed, fails permanently, or ctx ends. A round
// that fails transiently on every admitted worker (a mid-heal window: the
// supervisor is restarting a victim, the prober has not re-admitted it yet)
// is re-dispatched after backoff(round), up to MaxDispatchRounds — the
// dist layer absorbs infrastructure weather so it never surfaces as a cell
// retry in the experiment's result document.
func (c *Coordinator) Remote() experiments.RemoteFunc {
	return func(ctx context.Context, cs experiments.CellSpec, env experiments.CellEnv) (experiments.CellPayload, error) {
		req := TaskRequest{
			SchemaVersion: SchemaVersion,
			Key:           cs.Key(),
			Workload:      cs.Workload,
			Config:        cs.Config,
			Tweaks:        cs.Tweaks,
			Mode:          cs.Mode,
			Checks:        env.Checks,
			MaxCycles:     env.MaxCycles,
		}
		for round := 1; ; round++ {
			t := &task{
				ctx:   ctx,
				req:   req,
				tried: make([]bool, len(c.workers)),
				done:  make(chan taskResult, 1),
			}
			if err := c.enqueue(t, c.home(req.Key)); err != nil {
				return experiments.CellPayload{}, err
			}
			var r taskResult
			select {
			case r = <-t.done:
			case <-ctx.Done():
				// A runner may still take the task; it sees ctx ended and
				// its result lands in the buffered channel, collected with it.
				return experiments.CellPayload{}, ctx.Err()
			}
			if r.err == nil || round >= c.opts.MaxDispatchRounds ||
				!faults.IsTransient(r.err) || ctx.Err() != nil {
				return r.payload, r.err
			}
			select {
			case <-time.After(backoff(round)):
			case <-ctx.Done():
				return experiments.CellPayload{}, ctx.Err()
			case <-c.stopc:
				return experiments.CellPayload{}, fmt.Errorf("dist: coordinator closed")
			}
		}
	}
}

func (c *Coordinator) enqueue(t *task, worker int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("dist: coordinator closed")
	}
	c.queues[worker] = append(c.queues[worker], t)
	// Broadcast, not Signal: the task may be runnable only by workers that
	// have not tried it yet, and a single wakeup could land on one that has.
	c.cond.Broadcast()
	return nil
}

// next blocks until worker i may run a task. An admitted worker serves the
// head of its own queue first, then steals the tail of the longest other
// queue. A quarantined worker serves only last-resort tasks — ones no
// admitted untried worker could run — so quarantine can never strand a
// task that has nowhere else to go. Returns nil when the coordinator
// closes.
func (c *Coordinator) next(i int) (t *task, stolen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, false
		}
		if c.workers[i].admitted() {
			if t := takeFrom(&c.queues[i], i, false); t != nil {
				return t, false
			}
			victim, best := -1, 0
			for j, q := range c.queues {
				if j != i && len(q) > best {
					victim, best = j, len(q)
				}
			}
			if victim >= 0 {
				if t := takeFrom(&c.queues[victim], i, true); t != nil {
					return t, true
				}
				// The longest queue held nothing runnable by i (failover
				// leftovers); scan the rest before sleeping.
				for j := range c.queues {
					if j == i || j == victim {
						continue
					}
					if t := takeFrom(&c.queues[j], i, true); t != nil {
						return t, true
					}
				}
			}
		} else if t := c.lastResortLocked(i); t != nil {
			return t, false
		}
		c.cond.Wait()
	}
}

// takeFrom removes and returns the first task in q that worker i has not
// tried — scanning from the head for i's own queue, from the tail (the
// coldest task, leaving the victim its head) when stealing. Nil if none
// qualifies.
func takeFrom(q *[]*task, i int, fromTail bool) *task {
	s := *q
	for n := range s {
		idx := n
		if fromTail {
			idx = len(s) - 1 - n
		}
		if t := s[idx]; !t.tried[i] {
			*q = append(s[:idx:idx], s[idx+1:]...)
			return t
		}
	}
	return nil
}

// lastResortLocked finds a queued task that quarantined worker i may run:
// one it has not tried and no admitted untried worker could take. c.mu
// must be held.
func (c *Coordinator) lastResortLocked(i int) *task {
	for j, q := range c.queues {
		for idx, t := range q {
			if !t.tried[i] && c.pickUntried(t, i) < 0 {
				c.queues[j] = append(q[:idx:idx], q[idx+1:]...)
				return t
			}
		}
	}
	return nil
}

// pickUntried returns an admitted worker other than skip that has not
// tried t, or -1 when none qualifies.
func (c *Coordinator) pickUntried(t *task, skip int) int {
	for j, w := range c.workers {
		if j != skip && !t.tried[j] && w.admitted() {
			return j
		}
	}
	return -1
}

func (c *Coordinator) runner(i int) {
	defer c.wg.Done()
	for {
		t, stolen := c.next(i)
		if t == nil {
			return
		}
		if stolen {
			c.mSteals.Inc()
		}
		c.attempt(t, i)
	}
}

// attempt runs task t on worker i and classifies the outcome: a task-owned
// ending (the task's own context canceled or expired) never blames the
// worker or burns a failover slot; a worker-owned failure counts toward
// quarantine and fails over.
func (c *Coordinator) attempt(t *task, i int) {
	w := c.workers[i]
	if err := t.ctx.Err(); err != nil {
		// Task-owned before the wire was touched.
		t.finish(experiments.CellPayload{}, err)
		return
	}
	payload, err := c.call(t, w)
	var we *WorkerError
	switch {
	case err == nil:
		w.success()
		w.tasks.Inc()
		c.mTasks.Inc() // before finish, so the waiter sees it counted
		t.finish(payload, nil)
	case t.ctx.Err() != nil:
		// Task-owned: the cell's own context was canceled or its deadline
		// passed mid-call. The worker is not to blame, no failover slot
		// burns, dist.worker_failures stays put.
		t.finish(experiments.CellPayload{}, t.ctx.Err())
	case !errors.As(err, &we):
		// Permanent protocol error (bad request, key mismatch): the cell
		// is wrong, not the worker — which answered coherently.
		w.success()
		t.finish(experiments.CellPayload{}, err)
	default:
		c.mFailures.Inc()
		if w.failure() {
			c.mQuarantines.Inc()
			c.wg.Add(1) // this runner holds the group open, so Add is safe
			go c.probeUntilReadmitted(w)
			c.kick()
		}
		c.failover(t, i, err)
	}
}

// failover hands a worker-failed task to an untried admitted worker; when
// none exists the round ends and the transient error goes back to Remote,
// which decides whether the fleet deserves another round.
func (c *Coordinator) failover(t *task, i int, err error) {
	t.tried[i] = true
	if next := c.pickUntried(t, i); next >= 0 {
		c.mFailovers.Inc()
		if c.enqueue(t, next) == nil {
			return
		}
	}
	t.finish(experiments.CellPayload{}, err)
}

// probeUntilReadmitted probes quarantined worker w on backoff(n) until a
// probe answers "ok", which re-admits it, or the coordinator closes.
func (c *Coordinator) probeUntilReadmitted(w *workerState) {
	defer c.wg.Done()
	for n := 1; ; n++ {
		select {
		case <-time.After(backoff(n)):
		case <-c.stopc:
			return
		}
		if c.probe(w) {
			w.readmit()
			c.mReadmits.Inc()
			c.kick()
			return
		}
	}
}

// probe GETs /v1/health once. Only HTTP 200 with status "ok" counts:
// "draining" is unhealthy, since the worker is on its way out and new
// tasks would only be shed back.
func (c *Coordinator) probe(w *workerState) bool {
	c.mProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+w.addr+PathHealth, nil)
	healthy := false
	if err == nil {
		if resp, derr := c.client.Do(req); derr == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			var h HealthResponse
			healthy = rerr == nil && resp.StatusCode == http.StatusOK &&
				json.Unmarshal(data, &h) == nil && h.Status == "ok"
		}
	}
	if !healthy {
		c.mProbeFailures.Inc()
	}
	return healthy
}

// call runs one attempt of task t on worker w under the task's context.
// Connection failures, retryable envelopes and damaged payloads come back
// as transient *WorkerError; permanent envelopes (the request itself is
// wrong) come back bare; context endings come back as the context error
// for the caller to classify.
func (c *Coordinator) call(t *task, w *workerState) (experiments.CellPayload, error) {
	ctx := t.ctx
	body, err := json.Marshal(t.req)
	if err != nil {
		return experiments.CellPayload{}, fmt.Errorf("dist: encode task: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.addr+PathTask, bytes.NewReader(body))
	if err != nil {
		return experiments.CellPayload{}, fmt.Errorf("dist: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return experiments.CellPayload{}, ctx.Err()
		}
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if ctx.Err() != nil {
			return experiments.CellPayload{}, ctx.Err()
		}
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Code != "" {
			if env.Retryable {
				return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: &env}
			}
			return experiments.CellPayload{}, &env
		}
		return experiments.CellPayload{}, &WorkerError{
			Worker: w.addr, Err: fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data)),
		}
	}
	var tr TaskResponse
	if err := json.Unmarshal(data, &tr); err != nil {
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: fmt.Errorf("decode response: %w", err)}
	}
	if tr.SchemaVersion != SchemaVersion {
		return experiments.CellPayload{}, fmt.Errorf("dist: worker %s answered schema %d, this coordinator speaks %d",
			w.addr, tr.SchemaVersion, SchemaVersion)
	}
	if tr.Key != t.req.Key {
		return experiments.CellPayload{}, fmt.Errorf("dist: worker %s answered key %q for task %q", w.addr, tr.Key, t.req.Key)
	}
	p, err := tr.DecodePayload()
	if err != nil {
		// A CRC mismatch is transit damage, not a wrong cell: retryable.
		return experiments.CellPayload{}, &WorkerError{Worker: w.addr, Err: err}
	}
	return p, nil
}
