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

	// Circuit breaker: a worker opens (quarantine) when its sliding window
	// of the last FailureWindow attempt outcomes holds at least MinSamples
	// outcomes and the failure fraction reaches FailureRate. Defaults:
	// window 16, rate 0.5, min 3.
	FailureWindow int
	FailureRate   float64
	MinSamples    int

	// Prober: quarantined workers are probed on /v1/health with capped
	// exponential backoff (ProbeInterval base, doubling to
	// ProbeBackoffCap); a successful probe re-admits the worker
	// (half-open), and a second success — or one successful trial task —
	// closes the breaker. Healthy workers are also watched every
	// HealthyEvery probe ticks, so a silently dead worker flips the health
	// gauge without sacrificing a task. Defaults: interval 500ms, cap 8s,
	// probe timeout 2s, healthy cadence every 8 ticks. DisableProbing
	// turns the background prober off (unit tests that want deterministic
	// breaker states).
	ProbeInterval   time.Duration
	ProbeBackoffCap time.Duration
	ProbeTimeout    time.Duration
	HealthyEvery    int
	DisableProbing  bool

	// Hedging: when an attempt outlives the worker's HedgeQuantile recent
	// latency (HedgeFallback before enough samples exist, floored at
	// HedgeMin), a duplicate attempt launches on an untried worker; the
	// first success wins and the loser is canceled. Safe because cells are
	// deterministic and the cell cache single-flights — a hedge can only
	// waste cycles, never fork results. At most one hedge per task.
	// Defaults: quantile 0.95, fallback 2s, min 100ms.
	HedgeQuantile  float64
	HedgeFallback  time.Duration
	HedgeMin       time.Duration
	DisableHedging bool

	// MaxDispatchRounds bounds how many fleet-wide dispatch rounds one
	// cell gets before a transient failure surfaces to the caller
	// (default 12; 1 = surface after the first round). Within a round a
	// task fails over across every admitting worker; between rounds
	// Remote waits with capped backoff while the supervisor restarts and
	// the prober re-admits workers. Infrastructure failures are the
	// dist layer's to absorb: a surfaced retry would mark the cell
	// "retried" in the result document and break byte-identity with a
	// fault-free run.
	MaxDispatchRounds int
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Slots <= 0 {
		o.Slots = 4
	}
	if o.FailureWindow <= 0 {
		o.FailureWindow = 16
	}
	if o.FailureRate <= 0 {
		o.FailureRate = 0.5
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeBackoffCap <= 0 {
		o.ProbeBackoffCap = 8 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.HealthyEvery <= 0 {
		o.HealthyEvery = 8
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = 0.95
	}
	if o.HedgeFallback <= 0 {
		o.HedgeFallback = 2 * time.Second
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 100 * time.Millisecond
	}
	if o.MaxDispatchRounds <= 0 {
		o.MaxDispatchRounds = 12
	}
	return o
}

// task is one queued cell: the wire request plus the channel its waiting
// RemoteFunc call blocks on. A task may have several concurrent attempts
// (hedging, failover races); the first complete() wins, the rest are
// canceled and discarded without blame.
type task struct {
	ctx  context.Context
	req  TaskRequest
	home int
	done chan taskResult

	mu        sync.Mutex
	completed bool
	// tried marks workers whose attempt failed, so each worker attempts a
	// task at most once per coordinator round — a dead worker's runners
	// cannot burn a task's failover budget by re-stealing it.
	tried []bool
	// inflight maps worker index → cancel func of its running attempt.
	inflight map[int]context.CancelFunc
	// hedges counts duplicate attempts launched (capped at 1);
	// hedgePending attributes the next beginAttempt to a hedge launch.
	hedges       int
	hedgePending int
}

type taskResult struct {
	payload experiments.CellPayload
	err     error
}

// complete finishes the task exactly once: later calls are no-ops. The
// winning result lands in the buffered done channel and every other
// in-flight attempt is canceled. won, when non-nil, runs for the winning
// call before the result is delivered, so what it counts is visible to the
// waiter as soon as its RemoteFunc call returns.
func (t *task) complete(p experiments.CellPayload, err error, won func()) {
	t.mu.Lock()
	if t.completed {
		t.mu.Unlock()
		return
	}
	t.completed = true
	if won != nil {
		won()
	}
	t.done <- taskResult{payload: p, err: err} // buffered; never blocks
	cancels := make([]context.CancelFunc, 0, len(t.inflight))
	for _, fn := range t.inflight {
		cancels = append(cancels, fn)
	}
	t.mu.Unlock()
	for _, fn := range cancels {
		fn()
	}
}

func (t *task) isCompleted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// runnableBy reports whether worker i may attempt the task: not finished,
// not already failed by i, not currently being attempted by i.
func (t *task) runnableBy(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.completed && !t.tried[i] && t.inflight[i] == nil
}

// beginAttempt registers worker i's attempt: a per-attempt context (child
// of the task's own, so a completed task can cancel the stragglers) and
// whether this attempt is a hedge. Nil context when the task no longer
// needs attempts.
func (t *task) beginAttempt(i int) (context.Context, context.CancelFunc, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.completed || t.tried[i] || t.inflight[i] != nil {
		return nil, nil, false
	}
	base := t.ctx
	if base == nil {
		base = context.Background()
	}
	actx, cancel := context.WithCancel(base)
	t.inflight[i] = cancel
	isHedge := false
	if t.hedgePending > 0 {
		t.hedgePending--
		isHedge = true
	}
	return actx, cancel, isHedge
}

func (t *task) endAttempt(i int) {
	t.mu.Lock()
	delete(t.inflight, i)
	t.mu.Unlock()
}

// workerState is the coordinator's view of one worker: its circuit breaker,
// recent-latency quantile tracker (hedge-delay input), and the
// prober-owned backoff bookkeeping.
type workerState struct {
	addr  string
	br    *breaker
	lat   latQuantile
	tasks obs.Counter

	// probeGap/probeWait implement the capped exponential probe backoff in
	// prober ticks. Only the probe loop touches them.
	probeGap  int
	probeWait int
}

// Coordinator shards cells across a worker fleet. Each worker owns a FIFO
// queue; a cell's home queue is its key hash modulo fleet size, so a rerun
// of the same sweep lands each cell on the same worker and that worker's
// in-process cache serves repeats. Runner goroutines (Slots per worker)
// drain their own queue first and steal from the longest other queue when
// idle — a straggler workload queues behind nothing. A failed attempt
// fails over to an untried worker until every admitting worker has had a
// try, then surfaces a transient *WorkerError for the experiment
// scheduler's retry machinery. Per-worker circuit breakers quarantine
// repeat offenders, a background prober re-admits them on /v1/health
// evidence, and attempts that outlive the worker's latency quantile are
// hedged on a second worker.
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
	mHedges        obs.Counter
	mHedgeWins     obs.Counter
}

// NewCoordinator starts a coordinator over the given workers, its runner
// goroutines, and (unless disabled) the health prober. Close releases
// them.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if len(opts.Addrs) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker address")
	}
	opts = opts.withDefaults()
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
		c.workers = append(c.workers, &workerState{
			addr:      addr,
			br:        newBreaker(opts.FailureWindow, opts.MinSamples, opts.FailureRate),
			probeGap:  1,
			probeWait: 1,
		})
	}
	for i := range c.workers {
		for s := 0; s < opts.Slots; s++ {
			c.wg.Add(1)
			go c.runner(i)
		}
	}
	if !opts.DisableProbing {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// RegisterMetrics exports the coordinator's counters and per-worker health
// gauges on reg. dist.worker_health renders the breaker state: 1 closed
// (serving), 0.5 half-open (probation), 0 open (quarantined).
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
	reg.CounterFunc("dist.hedges", l, c.mHedges.Value)
	reg.CounterFunc("dist.hedge_wins", l, c.mHedgeWins.Value)
	for _, w := range c.workers {
		wl := obs.L("component", "dist", "worker", w.addr)
		reg.GaugeFunc("dist.worker_health", wl, w.br.gauge)
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
	Quarantines   uint64 // breaker transitions to open
	Probes        uint64 // health probes sent
	ProbeFailures uint64 // probes that failed
	Readmits      uint64 // quarantined workers re-admitted by a probe
	Hedges        uint64 // duplicate attempts launched
	HedgeWins     uint64 // tasks won by the hedged attempt
}

// Health returns the self-healing counters.
func (c *Coordinator) Health() HealthStats {
	return HealthStats{
		Failures:      c.mFailures.Value(),
		Quarantines:   c.mQuarantines.Value(),
		Probes:        c.mProbes.Value(),
		ProbeFailures: c.mProbeFailures.Value(),
		Readmits:      c.mReadmits.Value(),
		Hedges:        c.mHedges.Value(),
		HedgeWins:     c.mHedgeWins.Value(),
	}
}

// WorkersHealthy reports whether every worker's breaker is closed — the
// chaos harness polls it to assert a restarted worker was re-admitted.
func (c *Coordinator) WorkersHealthy() bool {
	for _, w := range c.workers {
		if w.br.current() != stateClosed {
			return false
		}
	}
	return true
}

// Close stops the runners and the prober. Queued tasks fail with a closed
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
		t.complete(experiments.CellPayload{}, fmt.Errorf("dist: coordinator closed"), nil)
	}
	c.wg.Wait()
}

// kick wakes every idle runner so it re-evaluates breaker states and
// queues. Taking the lock around Broadcast closes the check-then-wait race
// with runners.
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
// that fails transiently on every admitting worker (a mid-heal window: the
// supervisor is restarting a victim, the prober has not re-admitted it yet)
// is re-dispatched after a capped backoff, up to MaxDispatchRounds — the
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
				ctx:      ctx,
				req:      req,
				home:     c.home(req.Key),
				tried:    make([]bool, len(c.workers)),
				inflight: make(map[int]context.CancelFunc),
				done:     make(chan taskResult, 1),
			}
			if err := c.enqueue(t, t.home); err != nil {
				return experiments.CellPayload{}, err
			}
			var r taskResult
			select {
			case r = <-t.done:
			case <-ctx.Done():
				// A runner may still execute the task; its complete lands
				// in the buffered channel and is garbage collected with it.
				return experiments.CellPayload{}, ctx.Err()
			}
			if r.err == nil || round >= c.opts.MaxDispatchRounds ||
				!faults.IsTransient(r.err) || ctx.Err() != nil {
				return r.payload, r.err
			}
			select {
			case <-time.After(faults.Backoff(50*time.Millisecond, 2*time.Second, round)):
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

// next blocks until worker i may run a task. An admitting worker (breaker
// closed, or half-open with the trial slot free) serves the head of its own
// queue first, then steals the tail of the longest other queue. A
// non-admitting worker serves only last-resort tasks — ones no admitting
// untried worker could run — so quarantine can never strand a task that has
// nowhere else to go. Returns nil when the coordinator closes.
func (c *Coordinator) next(i int) (t *task, stolen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[i]
	for {
		if c.closed {
			return nil, false
		}
		if w.br.acquireAttempt() {
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
			w.br.releaseAttempt()
		} else if t := c.lastResortLocked(i); t != nil {
			return t, false
		}
		c.cond.Wait()
	}
}

// takeFrom removes and returns the first task in q runnable by worker i —
// scanning from the head for i's own queue, from the tail (the coldest
// task, leaving the victim its head) when stealing. Completed tasks
// (hedge/failover leftovers) are dropped on the way. Nil if none qualify.
func takeFrom(q *[]*task, i int, fromTail bool) *task {
	for {
		s := *q
		removed := false
		for n := range s {
			idx := n
			if fromTail {
				idx = len(s) - 1 - n
			}
			t := s[idx]
			if t.isCompleted() {
				*q = append(s[:idx:idx], s[idx+1:]...)
				removed = true
				break
			}
			if t.runnableBy(i) {
				*q = append(s[:idx:idx], s[idx+1:]...)
				return t
			}
		}
		if !removed {
			return nil
		}
	}
}

// lastResortLocked finds a queued task that worker i may run even though
// its breaker does not admit: one with no admitting untried alternative.
// c.mu must be held.
func (c *Coordinator) lastResortLocked(i int) *task {
	for j := range c.queues {
		q := c.queues[j]
		for idx := 0; idx < len(q); idx++ {
			t := q[idx]
			if !t.runnableBy(i) || c.hasAlternative(t, i) {
				continue
			}
			c.queues[j] = append(q[:idx:idx], q[idx+1:]...)
			return t
		}
	}
	return nil
}

// hasAlternative reports whether any admitting worker other than i could
// still attempt t.
func (c *Coordinator) hasAlternative(t *task, i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.completed {
		return true // not last-resort material; a scan will drop it
	}
	for j, w := range c.workers {
		if j == i || t.tried[j] || t.inflight[j] != nil {
			continue
		}
		if st := w.br.current(); st == stateClosed || st == stateHalfOpen {
			return true
		}
	}
	return false
}

func (c *Coordinator) runner(i int) {
	defer c.wg.Done()
	w := c.workers[i]
	for {
		t, stolen := c.next(i)
		if t == nil {
			return
		}
		if stolen {
			c.mSteals.Inc()
		}
		c.attempt(t, i, w)
	}
}

// attempt runs one task attempt on worker i, classifying the outcome:
// task-owned endings (the task's own context canceled or expired, or
// another attempt already won) never blame the worker or burn a failover
// slot; worker-owned failures feed the breaker and fail over.
func (c *Coordinator) attempt(t *task, i int, w *workerState) {
	if t.ctx != nil && t.ctx.Err() != nil {
		// Task-owned before the wire was touched.
		w.br.releaseAttempt()
		t.complete(experiments.CellPayload{}, t.ctx.Err(), nil)
		return
	}
	actx, cancel, isHedge := t.beginAttempt(i)
	if actx == nil {
		w.br.releaseAttempt()
		return
	}
	defer cancel()
	var hedgeTimer *time.Timer
	if !c.opts.DisableHedging && len(c.workers) > 1 {
		hedgeTimer = time.AfterFunc(c.hedgeDelay(w), func() { c.hedge(t) })
	}
	start := time.Now()
	payload, err := c.call(actx, t, w)
	if hedgeTimer != nil {
		hedgeTimer.Stop()
	}
	t.endAttempt(i)
	if err == nil {
		w.lat.observe(time.Since(start))
		if w.br.onSuccess() {
			c.kick()
		}
		w.tasks.Inc()
		t.complete(payload, nil, func() {
			c.mTasks.Inc()
			if isHedge {
				c.mHedgeWins.Inc()
			}
		})
		return
	}
	if t.ctx != nil && t.ctx.Err() != nil {
		// Task-owned: the cell's own context was canceled or its deadline
		// passed mid-call. Finish the task directly — the worker is not to
		// blame, no failover slot burns, dist.worker_failures stays put.
		w.br.releaseAttempt()
		t.complete(experiments.CellPayload{}, t.ctx.Err(), nil)
		return
	}
	if t.isCompleted() {
		// Hedge loser: another attempt won and canceled us. No blame.
		w.br.releaseAttempt()
		return
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		// Permanent protocol error (bad request, key mismatch): the cell
		// is wrong, not the worker — which answered coherently, so the
		// breaker records a success.
		w.br.onSuccess()
		t.complete(experiments.CellPayload{}, err, nil)
		return
	}
	c.mFailures.Inc()
	if w.br.onFailure() {
		c.mQuarantines.Inc()
		c.kick()
	}
	c.failover(t, i, err)
}

// failover hands a worker-failed task to an untried admitting worker; when
// none exists and no other attempt is still in flight, the transient error
// surfaces so the experiment scheduler's capped backoff decides whether the
// fleet deserves another round.
func (c *Coordinator) failover(t *task, i int, err error) {
	t.mu.Lock()
	t.tried[i] = true
	if t.completed {
		t.mu.Unlock()
		return
	}
	next := c.pickUntriedLocked(t)
	others := len(t.inflight)
	t.mu.Unlock()
	if next >= 0 {
		c.mFailovers.Inc()
		if qerr := c.enqueue(t, next); qerr == nil {
			return
		}
	}
	if others > 0 {
		return // a concurrent attempt may still win; it decides on failure
	}
	t.complete(experiments.CellPayload{}, err, nil)
}

// pickUntriedLocked returns an admitting worker that has neither failed nor
// is currently attempting t, preferring closed breakers over half-open;
// -1 when none qualifies. t.mu must be held (c.workers is immutable and
// breaker state is its own lock, so no other lock is needed).
func (c *Coordinator) pickUntriedLocked(t *task) int {
	fallback := -1
	for j, w := range c.workers {
		if t.tried[j] || t.inflight[j] != nil {
			continue
		}
		switch w.br.current() {
		case stateClosed:
			return j
		case stateHalfOpen:
			if fallback < 0 {
				fallback = j
			}
		}
	}
	return fallback
}

// hedgeDelay picks how long worker w's attempt may run before a duplicate
// launches elsewhere: the worker's recent latency quantile once enough
// samples exist (padded 1.5x so ordinary jitter does not hedge), the
// fallback before that.
func (c *Coordinator) hedgeDelay(w *workerState) time.Duration {
	if q, ok := w.lat.quantile(c.opts.HedgeQuantile); ok {
		d := q + q/2
		if d < c.opts.HedgeMin {
			d = c.opts.HedgeMin
		}
		return d
	}
	return c.opts.HedgeFallback
}

// hedge launches the task's duplicate attempt on an untried admitting
// worker. Cells are deterministic and the cell cache single-flights, so
// the duplicate can never fork results — first success wins, the loser is
// canceled by complete().
func (c *Coordinator) hedge(t *task) {
	if t.ctx != nil && t.ctx.Err() != nil {
		return
	}
	t.mu.Lock()
	if t.completed || t.hedges >= 1 {
		t.mu.Unlock()
		return
	}
	next := c.pickUntriedLocked(t)
	if next < 0 {
		t.mu.Unlock()
		return
	}
	t.hedges++
	t.hedgePending++
	t.mu.Unlock()
	c.mHedges.Inc()
	c.enqueue(t, next)
}

// probeLoop is the background prober: quarantined workers are probed with
// capped exponential backoff and re-admitted on success; half-open workers
// are probed every tick (a second success closes without needing a trial
// task); healthy workers are watched at a slow cadence so a silently dead
// worker (SIGKILL) is discovered without sacrificing a task.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	gapCap := int(c.opts.ProbeBackoffCap / c.opts.ProbeInterval)
	if gapCap < 1 {
		gapCap = 1
	}
	tick := 0
	for {
		select {
		case <-c.stopc:
			return
		case <-ticker.C:
		}
		tick++
		for i, w := range c.workers {
			switch w.br.current() {
			case stateOpen:
				w.probeWait--
				if w.probeWait > 0 {
					continue
				}
				if c.probe(w) {
					w.probeGap, w.probeWait = 1, 1
				} else {
					w.probeGap *= 2
					if w.probeGap > gapCap {
						w.probeGap = gapCap
					}
					w.probeWait = w.probeGap
				}
			case stateHalfOpen:
				c.probe(w)
			case stateClosed:
				if (tick+i)%c.opts.HealthyEvery == 0 {
					c.probe(w)
				}
			}
		}
	}
}

// probe GETs /v1/health once and folds the verdict into the worker's
// breaker. "draining" counts as unhealthy: the worker is on its way out
// and new tasks would only be shed back.
func (c *Coordinator) probe(w *workerState) bool {
	c.mProbes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
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
	if healthy {
		readmitted, closed := w.br.probeSuccess()
		if readmitted {
			c.mReadmits.Inc()
		}
		if readmitted || closed {
			c.kick()
		}
		return true
	}
	c.mProbeFailures.Inc()
	if w.br.probeFailure() {
		c.mQuarantines.Inc()
		c.kick()
	}
	return false
}

// call runs one task attempt on one worker under the attempt's context.
// Connection failures, retryable envelopes and damaged payloads come back
// as transient *WorkerError; permanent envelopes (the request itself is
// wrong) come back bare; context endings come back as the context error
// for the caller to classify (task-owned vs hedge-canceled).
func (c *Coordinator) call(ctx context.Context, t *task, w *workerState) (experiments.CellPayload, error) {
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
