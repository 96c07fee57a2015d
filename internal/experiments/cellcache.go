package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"ignite/internal/cfg"
	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// scratchPool recycles engine working buffers (trace, eval and walk scratch)
// across cells. Each cell builds a fresh engine, but the megabytes of
// per-invocation buffer the previous cell grew are reusable as-is; pooling
// them takes steady-state cell simulation from one large growth cycle per
// cell to near-zero buffer allocation. Scratch contents never affect
// results — buffers are attached length-zero and fully rewritten.
var scratchPool = sync.Pool{New: func() any { return new(engine.Scratch) }}

// CellCache memoizes the two deterministic, expensive artifacts of an
// experiment run across experiments:
//
//   - generated programs, keyed by the full workload specification, built
//     once per workload and shared read-only (Program.Walk carries its own
//     PCG state, so concurrent cells may walk one program safely);
//   - simulation cells, keyed by everything that determines a cell's
//     outcome: the workload spec (name, generator parameters, data profile,
//     instruction budget), the front-end configuration kind, the
//     canonicalized tweaks, and the lukewarm mode.
//
// A cell is a pure function of its key — the engine seeds every RNG from the
// spec — so the nl/interleaved baseline that fig3, fig8, fig9a, fig11 and
// fig12 all need is simulated exactly once per RunAll instead of five times.
// Entries are computed single-flight: a second request for an in-flight key
// blocks until the first completes and shares its result.
type CellCache struct {
	mu    sync.Mutex
	cells map[string]*cellEntry
	hits  int
	// memo holds the program and trace memos. A side cache shares its
	// parent's (see side); neither memo counts in Stats.
	memo *memos
	// shareTraces feeds cells pre-generated committed traces (the walk
	// depends only on the program and seed, never on the front-end
	// configuration, so a workload's ~6 invocation traces are identical
	// across every cell). Disabled only on the benchmark path that
	// replays the pre-scheduler cost model.
	shareTraces bool
	// backing, when set, persists computed cells to (and restores them
	// from) a cross-run store — see SetBacking. Loads and saves happen
	// inside the entry's single-flight section, so hit accounting (and
	// therefore exported manifests) is identical between a cold run and a
	// warm-store rerun.
	backing CellBacking
	// remote, when set, delegates fresh cell computation out of process —
	// see SetRemote. The backing store is consulted first, so a
	// coordinator with a warm store never ships the cell over the wire.
	remote RemoteFunc
}

// CellBacking is a persistent cell store the cache reads through: Load
// returns the stored result for a key (ok=false on any miss, including a
// detected-corrupt record — the cache recomputes and Save repairs), and
// Save persists a freshly computed cell. Implementations must be safe for
// concurrent use; the experiments layer binds internal/store through this
// seam (see BindStore).
type CellBacking interface {
	Load(key string) (res CellPayload, ok bool)
	Save(key string, res CellPayload)
}

// CellPayload is the portable value of one computed cell — exactly what
// the content-addressed store and the distributed-sweep wire protocol both
// carry. lukewarm.Result is plain exported data, so a JSON round trip
// reproduces it bit-identically.
type CellPayload struct {
	Res     *lukewarm.Result   `json:"res"`
	Metrics map[string]float64 `json:"metrics"`
}

// RemoteFunc computes one cell out of process (a distributed-sweep
// coordinator shipping the cell to a worker). A transient error (anything
// exposing Transient() bool, e.g. a worker connection failure) is not
// cached: the entry is evicted so the scheduler's retry machinery gets a
// fresh attempt instead of the memoized failure.
type RemoteFunc func(ctx context.Context, cs CellSpec, env CellEnv) (CellPayload, error)

// SetBacking installs a persistent store behind the cache. Must be set
// before the first cell request.
func (cc *CellCache) SetBacking(b CellBacking) { cc.backing = b }

// SetRemote installs an out-of-process compute delegate. Must be set
// before the first cell request.
func (cc *CellCache) SetRemote(fn RemoteFunc) { cc.remote = fn }

// memos are the cell-independent artifacts every cell of a workload reads:
// generated programs and committed invocation traces.
type memos struct {
	mu     sync.Mutex
	progs  map[string]*progEntry
	traces map[string]*traceEntry
}

type progEntry struct {
	once sync.Once
	prog *cfg.Program
	err  error
}

type cellEntry struct {
	once sync.Once
	c    *cell
	err  error
}

type traceEntry struct {
	once  sync.Once
	steps []cfg.Step
	res   cfg.WalkResult
	err   error
}

// NewCellCache returns an empty cache.
func NewCellCache() *CellCache {
	return &CellCache{
		cells: make(map[string]*cellEntry),
		memo: &memos{
			progs:  make(map[string]*progEntry),
			traces: make(map[string]*traceEntry),
		},
		shareTraces: true,
	}
}

// side returns a cache for cells that must stay out of cc's books. It
// borrows cc's program and trace memos, so its cells reuse every program
// build and trace walk, but keeps its own cell table and has no store
// backing and no remote. cc's Stats — and so the cacheCells/cacheHits of
// every manifest stamped from it — do not see anything computed on the
// side. side(nil) is nil, leaving runMatrix on its private-cache path.
func (cc *CellCache) side() *CellCache {
	if cc == nil {
		return nil
	}
	return &CellCache{cells: make(map[string]*cellEntry), memo: cc.memo, shareTraces: cc.shareTraces}
}

// specKey fingerprints everything about a workload that affects simulation:
// tests and benchmarks shrink TargetInstr on otherwise identical specs, so
// the name alone is not a safe key.
func specKey(spec workload.Spec) string {
	return fmt.Sprintf("%s|%d|%+v|%+v", spec.Name, spec.TargetInstr, spec.Gen, spec.Data)
}

// tweakKey canonicalizes sim.Tweaks (dereferencing the BIM-policy pointer,
// which would otherwise print as an address and break key equality).
func tweakKey(tw sim.Tweaks) string {
	bim := -1
	if tw.BIMPolicy != nil {
		bim = int(*tw.BIMPolicy)
	}
	return fmt.Sprintf("keep=%v,%v,%v|bim=%d|dbl=%v|thr=%d|meta=%d|btb=%d|l2=%d",
		tw.Keep.BTB, tw.Keep.BIM, tw.Keep.TAGE, bim,
		tw.DoubleBuffer, tw.ThrottleThreshold, tw.MetadataBytes, tw.BTBEntries, tw.L2KiB)
}

func cellKey(spec workload.Spec, rc runConfig) string {
	return fmt.Sprintf("%s|kind=%s|mode=%d|%s", specKey(spec), rc.Kind, rc.Mode, tweakKey(rc.Tweak))
}

// program returns the workload's generated program, building it at most once.
func (cc *CellCache) program(spec workload.Spec) (*cfg.Program, error) {
	m := cc.memo
	key := specKey(spec)
	m.mu.Lock()
	e, ok := m.progs[key]
	if !ok {
		e = &progEntry{}
		m.progs[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.prog, _, e.err = spec.Build() })
	return e.prog, e.err
}

// cellEnv carries the per-run knobs that shape how a fresh cell simulates
// without affecting its result, so none of them belong in the cache key:
// tracing and checking never alter outcomes (a check can only abort the
// run), and the cycle-budget watchdog is abort-only. ctx bounds remote
// computation only — local simulation is pure CPU and runs to completion.
type cellEnv struct {
	ctx       context.Context
	tracer    obs.Tracer
	checks    bool
	maxCycles uint64
}

// cell returns the simulated (workload, config) cell, computing it at most
// once per unique key. The second return reports whether the cell was served
// from the cache (an entry another request already created). A panic during
// computation is recovered into a *faults.PanicError and cached as the
// entry's error — without that, sync.Once would mark the entry done and
// serve a nil cell to every later requester.
func (cc *CellCache) cell(spec workload.Spec, rc runConfig, env cellEnv) (*cell, bool, error) {
	key := cellKey(spec, rc)
	cc.mu.Lock()
	e, hit := cc.cells[key]
	if hit {
		cc.hits++
	} else {
		e = &cellEntry{}
		cc.cells[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				e.c, e.err = nil, &faults.PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		// Persistent store first: a warm record turns the cell into pure
		// I/O. Loading inside the single-flight section keeps cache-hit
		// accounting — and therefore exported manifests — identical
		// between a cold run and a warm-store rerun.
		if cc.backing != nil {
			if p, ok := cc.backing.Load(key); ok {
				e.c = &cell{Res: p.Res, Metrics: p.Metrics}
				return
			}
		}
		if cc.remote != nil {
			ctx := env.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			cs := CellSpec{Workload: spec, Config: rc.Kind, Tweaks: rc.Tweak, Mode: rc.Mode}
			p, err := cc.remote(ctx, cs, CellEnv{Tracer: env.tracer, Checks: env.checks, MaxCycles: env.maxCycles})
			if err != nil {
				e.err = err
				return
			}
			e.c = &cell{Res: p.Res, Metrics: p.Metrics}
		} else {
			e.c, e.err = cc.compute(spec, rc, env)
		}
		if e.err == nil && cc.backing != nil {
			cc.backing.Save(key, CellPayload{Res: e.c.Res, Metrics: e.c.Metrics})
		}
	})
	// A transient remote failure (worker connection lost, fleet draining)
	// or an attempt ended by its context must not be memoized: evict the
	// entry so the scheduler's retry — or the next run sharing this cache —
	// gets a fresh attempt. Deterministic failures stay cached as before.
	if e.err != nil && cc.remote != nil &&
		(faults.IsTransient(e.err) || errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		cc.mu.Lock()
		if cc.cells[key] == e {
			delete(cc.cells, key)
		}
		cc.mu.Unlock()
	}
	return e.c, hit, e.err
}

// trace returns the committed trace for (workload, seed, budget), walking
// the program at most once per key. Entries live for the cache's lifetime:
// a full-scale all-figures run holds roughly six traces per workload.
func (cc *CellCache) trace(prog *cfg.Program, specK string, seed, maxInstr uint64) ([]cfg.Step, cfg.WalkResult, error) {
	m := cc.memo
	key := fmt.Sprintf("%s|seed=%d|max=%d", specK, seed, maxInstr)
	m.mu.Lock()
	e, ok := m.traces[key]
	if !ok {
		e = &traceEntry{}
		m.traces[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		steps := make([]cfg.Step, 0, 4096)
		e.res, e.err = prog.Walk(0, cfg.WalkOptions{Seed: seed, MaxInstr: maxInstr},
			func(s cfg.Step) bool { steps = append(steps, s); return true })
		e.steps = steps
	})
	return e.steps, e.res, e.err
}

func (cc *CellCache) compute(spec workload.Spec, rc runConfig, env cellEnv) (*cell, error) {
	prog, err := cc.program(spec)
	if err != nil {
		return nil, err
	}
	opts := []sim.Option{sim.WithTweaks(rc.Tweak), sim.WithTracer(env.tracer)}
	if env.checks {
		opts = append(opts, sim.WithChecks())
	}
	if env.maxCycles > 0 {
		opts = append(opts, sim.WithMaxCycles(env.maxCycles))
	}
	setup, err := sim.NewWithProgram(spec, prog, rc.Kind, opts...)
	if err != nil {
		return nil, err
	}
	setup.Eng.AttachScratch(scratchPool.Get().(*engine.Scratch))
	defer func() { scratchPool.Put(setup.Eng.DetachScratch()) }()
	if cc.shareTraces {
		specK := specKey(spec)
		setup.TraceProvider = func(seed, maxInstr uint64) ([]cfg.Step, cfg.WalkResult, error) {
			return cc.trace(prog, specK, seed, maxInstr)
		}
	}
	res, err := setup.Run(rc.Mode)
	if err != nil {
		return nil, err
	}
	// Snapshot every engine/mechanism/result metric into plain values so
	// cached cells do not pin whole engines (caches, BTB, TAGE tables) in
	// memory for the lifetime of a cross-experiment cache.
	reg := obs.NewRegistry()
	setup.RegisterMetrics(reg)
	res.RegisterMetrics(reg, nil)
	return &cell{Res: res, Metrics: reg.Snapshot().Values()}, nil
}

// Stats reports the number of distinct cells simulated and how many cell
// requests were served from the cache.
func (cc *CellCache) Stats() (cells, hits int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.cells), cc.hits
}
