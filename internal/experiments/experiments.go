// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each experiment runs the lukewarm
// protocol over the 20 workloads (or a subset) under the relevant front-end
// configurations and prints the same rows/series the paper plots.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ignite/internal/check"
	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/stats"
	"ignite/internal/workload"
)

// ID identifies a registered experiment (a paper table/figure or an
// ablation study).
type ID string

// Options configures an experiment run.
type Options struct {
	// Workloads selects the functions to run (default: all 20).
	Workloads []workload.Spec
	// Parallel bounds concurrent cell simulations (default NumCPU). Cells
	// are (workload, config) pairs, so a run exposes up to
	// len(Workloads)×len(configs)-way parallelism.
	Parallel int
	// Cache, when set, memoizes simulation cells so experiments sharing
	// cells (the nl baseline appears in five figures) compute each unique
	// cell exactly once. RunAll installs a shared cache automatically;
	// nil keeps reuse local to a single experiment. Results are
	// bit-identical with or without a cache.
	Cache *CellCache
	// Tracer, when set, receives run-progress events (CellDone on every
	// finished cell, CacheHit on cache-served ones) and is installed on
	// every freshly simulated cell's engine, which then emits
	// invocation/replay lifecycle events. Cells run concurrently, so the
	// tracer must be safe for concurrent use (every obs implementation
	// is). Tracing never affects simulation results.
	Tracer obs.Tracer
	// Checks enables the runtime invariant verifier on every freshly
	// simulated cell (sim.WithChecks): conservation-law violations abort
	// the run with a structured check.Violation error instead of
	// corrupting figures silently. Defaults to the IGNITE_CHECKS
	// environment gate; checking never affects results, so (like Tracer)
	// it is not part of the cell cache key.
	Checks bool
	// FailurePolicy selects how cell failures affect the run: FailFast
	// (the zero value) cancels scheduling on the first definitive failure
	// and returns the joined errors; ContinueOnError completes every
	// healthy cell and degrades the Result instead — failed and skipped
	// cells surface through Result.Failures and per-cell statuses.
	FailurePolicy FailurePolicy
	// CellTimeout bounds each simulation attempt of one cell (0 = no
	// deadline). An attempt that exceeds it fails with a deadline error.
	CellTimeout time.Duration
	// MaxCycles arms the engine's per-invocation cycle-budget watchdog on
	// every freshly simulated cell (0 = unlimited): a runaway invocation
	// aborts with engine.ErrCycleBudget instead of hanging its scheduler
	// worker forever. The watchdog is abort-only — it can never alter a
	// completing simulation — so like Tracer and Checks it is not part of
	// the cell cache key.
	MaxCycles uint64
	// Retries caps transient-failure retries per cell: 0 means the
	// default (2), negative disables retrying entirely.
	Retries int
	// RetryBackoff is the initial delay before a retry, doubled per
	// attempt and capped at 2s (default 5ms).
	RetryBackoff time.Duration
	// Faults arms a deterministic fault-injection plan (see
	// internal/faults): before each cell simulates, the plan may panic,
	// delay, or fail that attempt at its (experiment, workload, config)
	// site. Nil disables injection. Faults fire outside the cell cache,
	// so cached results are never poisoned by an injected failure and a
	// retried cell is bit-identical to a clean one.
	Faults *faults.Plan
	// Health, when set, accumulates run-health counters: panics
	// recovered, transient retries, deadline hits, failed and skipped
	// cells.
	Health *obs.RunHealth
	// serialConfigs restores the pre-scheduler execution shape — one
	// goroutine per workload running its configurations serially — and is
	// kept only so benchmarks can measure the old path (see
	// BenchmarkRunAllSerialNoCache in this package).
	serialConfigs bool
}

func (o Options) withDefaults() Options {
	if len(o.Workloads) == 0 {
		o.Workloads = workload.All()
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if check.EnvEnabled() {
		o.Checks = true
	}
	return o
}

// Result is a reproduced table/figure: a rendered table plus the raw values
// keyed by row then column for programmatic checks, and the per-cell metric
// snapshots behind them. Document serializes the whole thing.
type Result struct {
	ID     ID
	Title  string
	Table  *stats.Table
	Table2 *stats.Table // optional companion table (e.g. mean MPKIs)
	Values map[string]map[string]float64
	// Cells holds one flattened metric snapshot per simulated
	// (workload, config) cell contributing to this result, in
	// deterministic (workload plot order, config name) order.
	Cells []obs.CellMetrics
	// Failures lists the cells that failed or were skipped, in submission
	// order; empty on healthy runs. Populated under ContinueOnError,
	// where cell failures degrade the result instead of aborting the run
	// (the failed workloads are excluded from aggregate rows).
	Failures []CellFailure
}

// Render returns the printable form of the result.
func (r *Result) Render() string {
	out := r.Table.String()
	if r.Table2 != nil {
		out += "\n" + r.Table2.String()
	}
	return out
}

// Get returns a value by row and column.
func (r *Result) Get(row, col string) float64 {
	if m, ok := r.Values[row]; ok {
		return m[col]
	}
	return 0
}

func (r *Result) set(row, col string, v float64) {
	if r.Values == nil {
		r.Values = map[string]map[string]float64{}
	}
	if r.Values[row] == nil {
		r.Values[row] = map[string]float64{}
	}
	r.Values[row][col] = v
}

// Runner executes one experiment. ctx cancels in-flight cell scheduling;
// cells already running finish (a cell is seconds of CPU at full scale) and
// the run returns ctx's error joined with any cell failures.
type Runner func(ctx context.Context, opt Options) (*Result, error)

type regEntry struct {
	ID    ID
	Title string
	Run   Runner
}

// registry maps experiment IDs to runners, in presentation order. It is
// populated in init to break the initialization cycle between runners and
// Title.
var registry []regEntry

func init() {
	// Prepend the paper's tables/figures; ablations may already have
	// registered themselves from another file's init.
	registry = append([]regEntry{
		{"tab1", "Table 1: serverless functions and language runtimes", Table1},
		{"tab2", "Table 2: simulated processor parameters", Table2},
		{"fig1", "Figure 1: CPI stacks, interleaved vs back-to-back", Fig1},
		{"fig2", "Figure 2: front-end working sets per invocation", Fig2},
		{"fig3", "Figure 3: front-end prefetchers on lukewarm invocations", Fig3},
		{"fig4", "Figure 4: sensitivity to warm BPU state", Fig4},
		{"fig5", "Figure 5: sensitivity to warm CBP components", Fig5},
		{"fig6", "Figure 6: initial vs subsequent mispredictions", Fig6},
		{"fig8", "Figure 8: performance over next-line prefetcher", Fig8},
		{"fig9a", "Figure 9a: miss coverage (L1I/BTB/CBP MPKI)", Fig9a},
		{"fig9b", "Figure 9b: initial-misprediction coverage", Fig9b},
		{"fig9c", "Figure 9c: restore accuracy", Fig9c},
		{"fig10", "Figure 10: memory bandwidth breakdown", Fig10},
		{"fig11", "Figure 11: bimodal initialization policies", Fig11},
		{"fig12", "Figure 12: temporal-streaming prefetchers", Fig12},
	}, registry...)
}

// Info describes one registered experiment.
type Info struct {
	ID    ID
	Title string
}

// IDs returns all experiment identifiers in presentation order.
func IDs() []ID {
	ids := make([]ID, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup resolves an experiment ID. The second return is false for unknown
// IDs; Run wraps that case in an UnknownIDError.
func Lookup(id ID) (Info, bool) {
	for _, e := range registry {
		if e.ID == id {
			return Info{ID: e.ID, Title: e.Title}, true
		}
	}
	return Info{}, false
}

// Title returns an experiment's title ("" for unknown IDs).
func Title(id ID) string {
	info, _ := Lookup(id)
	return info.Title
}

// UnknownIDError reports a request for an unregistered experiment, carrying
// the valid IDs so CLIs can print an actionable message.
type UnknownIDError struct {
	ID    ID
	Valid []ID
}

func (e *UnknownIDError) Error() string {
	valid := make([]string, len(e.Valid))
	for i, id := range e.Valid {
		valid[i] = string(id)
	}
	return fmt.Sprintf("experiments: unknown experiment %q (valid: %s)",
		e.ID, strings.Join(valid, ", "))
}

// Run executes the experiment with the given ID. A panic anywhere in the
// experiment — figure aggregation included, not just inside scheduler cells
// — is recovered into a *faults.PanicError so one broken experiment cannot
// take down a multi-experiment run.
func Run(ctx context.Context, id ID, opt Options) (r *Result, err error) {
	for _, e := range registry {
		if e.ID == id {
			defer func() {
				if v := recover(); v != nil {
					r = nil
					err = &faults.PanicError{Value: v, Stack: debug.Stack()}
				}
			}()
			return e.Run(ctx, opt)
		}
	}
	return nil, &UnknownIDError{ID: id, Valid: IDs()}
}

// PaperIDs returns the paper's table/figure experiments (excluding the
// ablation studies) in presentation order.
func PaperIDs() []ID {
	var ids []ID
	for _, e := range registry {
		if strings.HasPrefix(string(e.ID), "tab") || strings.HasPrefix(string(e.ID), "fig") {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// RunAll executes the given experiments (nil = every registered experiment)
// with one shared cell cache, so cells duplicated across figures — the
// nl/interleaved baseline alone is needed by fig3, fig8, fig9a, fig11 and
// fig12, and fig9a repeats four of fig8's configurations — are simulated
// exactly once for the whole reproduction run.
//
// Under FailFast the first failing experiment aborts the sweep. Under
// ContinueOnError a failing experiment is recorded and the sweep moves on:
// RunAll returns every result it completed plus the joined per-experiment
// errors. Cancellation (Ctrl-C) always ends the sweep, returning the
// partial results under ContinueOnError.
func RunAll(ctx context.Context, ids []ID, opt Options) ([]*Result, error) {
	if ids == nil {
		ids = IDs()
	}
	if opt.Cache == nil {
		opt.Cache = NewCellCache()
	}
	results := make([]*Result, 0, len(ids))
	var errs []error
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			if opt.FailurePolicy == ContinueOnError {
				return results, errors.Join(append(errs, err)...)
			}
			return nil, err
		}
		r, err := Run(ctx, id, opt)
		if err != nil {
			if opt.FailurePolicy == ContinueOnError && !errors.Is(err, context.Canceled) {
				errs = append(errs, fmt.Errorf("%s: %w", id, err))
				continue
			}
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		results = append(results, r)
	}
	return results, errors.Join(errs...)
}

// runConfig holds one named simulation cell.
type runConfig struct {
	Name  string
	Kind  sim.Kind
	Tweak sim.Tweaks
	Mode  lukewarm.Mode
}

// cell is the outcome of one (workload, config) simulation: the lukewarm
// result plus the cell's flattened metric snapshot. Metrics are captured
// eagerly as plain values rather than by retaining the *sim.Setup, so a
// cross-experiment cache of cells stays small instead of pinning one full
// engine per unique cell.
type cell struct {
	Res *lukewarm.Result
	// Metrics is the cell's registry snapshot (engine + mechanisms +
	// result aggregates), keyed by obs sample key. Figure code reads
	// specific keys (see the m* constants); the exporters ship the whole
	// map per cell.
	Metrics map[string]float64
}

// Metric keys the figure code reads back out of cell snapshots. Label sets
// are canonical (sorted by key), so these strings are stable.
const (
	mIgniteInserted = "traffic.src_inserted{component=traffic,src=ignite}"
	mIgniteUseful   = "traffic.src_useful{component=traffic,src=ignite}"
	mBTBRestored    = "btb.restored_inserts{component=btb}"
	mBTBRestoredUU  = "btb.restored_evicted_untouched{component=btb}"
	mIgniteDropped  = "ignite.dropped_records{component=ignite}"
)

// matrix is the outcome of runMatrix: the computed cells, every scheduler
// outcome in submission order, and the set of workloads with at least one
// failed or skipped cell. Figure aggregation excludes unhealthy workloads —
// their rows would be incomplete — while their computed cells still ship in
// the exported document alongside status-only entries for the missing ones.
type matrix struct {
	cells     map[string]map[string]*cell
	outcomes  []schedOutcome
	unhealthy map[string]bool
}

// runMatrix simulates every workload under every configuration by
// submitting each (workload, config) cell independently to the supervised
// worker pool. The generated program is built once per workload (through
// the cell cache's program memo) and shared read-only across that
// workload's cells. Injected faults fire before the cache lookup, so cache
// entries stay pure functions of their key and a retried cell is
// bit-identical to a clean one. Under FailFast (the default) the first
// definitive cell failure cancels unstarted cells and the run returns the
// joined errors; under ContinueOnError every healthy cell completes and
// the failures ride on the returned matrix instead. Every finished cell is
// announced to opt.Tracer.
func runMatrix(ctx context.Context, id ID, opt Options, configs []runConfig) (*matrix, error) {
	opt = opt.withDefaults()
	cache := opt.Cache
	if cache == nil {
		// Private per-matrix cache: no cross-experiment reuse, but still
		// one program build per workload. The serial benchmark path
		// replays the pre-scheduler cost model, which regenerated every
		// invocation trace, so trace sharing stays off there.
		cache = NewCellCache()
		cache.shareTraces = !opt.serialConfigs
	}
	m := &matrix{
		cells:     make(map[string]map[string]*cell, len(opt.Workloads)),
		unhealthy: make(map[string]bool),
	}
	var mu sync.Mutex
	store := func(wl, cfgName string, c *cell) {
		mu.Lock()
		row := m.cells[wl]
		if row == nil {
			row = make(map[string]*cell, len(configs))
			m.cells[wl] = row
		}
		row[cfgName] = c
		mu.Unlock()
	}

	env := cellEnv{tracer: opt.Tracer, checks: opt.Checks, maxCycles: opt.MaxCycles}
	total := len(opt.Workloads) * len(configs)
	var done atomic.Int64
	runCell := func(cctx context.Context, spec workload.Spec, rc runConfig) error {
		start := time.Now()
		site := faults.Site{Experiment: string(id), Workload: spec.Name, Config: rc.Name}
		if err := opt.Faults.Fire(cctx, site); err != nil {
			return err
		}
		cellEnv := env
		cellEnv.ctx = cctx // bounds remote computation; local cells run to completion
		c, cached, err := cache.cell(spec, rc, cellEnv)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", spec.Name, rc.Name, err)
		}
		store(spec.Name, rc.Name, c)
		if tr := opt.Tracer; tr != nil {
			if cached {
				tr.CacheHit(obs.CacheHitEvent{Workload: spec.Name, Config: rc.Name})
			}
			tr.CellDone(obs.CellDoneEvent{
				Experiment: string(id),
				Workload:   spec.Name,
				Config:     rc.Name,
				Cached:     cached,
				Done:       int(done.Add(1)),
				Total:      total,
				Elapsed:    time.Since(start),
			})
		}
		return nil
	}

	sched := newScheduler(ctx, id, opt)
	if opt.serialConfigs {
		for _, spec := range opt.Workloads {
			spec := spec
			sched.submit(spec.Name, "*", func(cctx context.Context, _ int) error {
				for _, rc := range configs {
					if err := runCell(cctx, spec, rc); err != nil {
						return err
					}
				}
				return nil
			})
		}
	} else {
		for _, spec := range opt.Workloads {
			for _, rc := range configs {
				spec, rc := spec, rc
				sched.submit(spec.Name, rc.Name, func(cctx context.Context, _ int) error {
					return runCell(cctx, spec, rc)
				})
			}
		}
	}
	m.outcomes = sched.wait()
	for _, o := range m.outcomes {
		if o.status == StatusFailed || o.status == StatusSkipped {
			m.unhealthy[o.workload] = true
		}
	}
	if opt.FailurePolicy != ContinueOnError || ctx.Err() != nil {
		if err := joinOutcomes(m.outcomes, ctx.Err()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// attachCells copies the matrix's per-cell metric snapshots into the result
// in deterministic (workload plot order, config name) order, stamps each
// computed cell's scheduler fate, and collects failed and skipped cells
// into r.Failures. Cells that never computed contribute status-only
// entries, so a degraded document states what is missing and why.
func attachCells(r *Result, opt Options, m *matrix) {
	fates := make(map[string]schedOutcome, len(m.outcomes))
	for _, o := range m.outcomes {
		fates[o.workload+"\x00"+o.config] = o
	}
	r.Failures = cellFailures(m.outcomes)
	for _, name := range orderedCellNames(opt, m) {
		row := m.cells[name]
		cfgSet := make(map[string]bool, len(row))
		for cn := range row {
			cfgSet[cn] = true
		}
		for _, o := range m.outcomes {
			if o.workload == name {
				cfgSet[o.config] = true
			}
		}
		cfgs := make([]string, 0, len(cfgSet))
		for cn := range cfgSet {
			cfgs = append(cfgs, cn)
		}
		sort.Strings(cfgs)
		for _, cn := range cfgs {
			cm := obs.CellMetrics{Workload: name, Config: cn}
			o, hasFate := fates[name+"\x00"+cn]
			if c := row[cn]; c != nil {
				cm.Metrics = c.Metrics
				if hasFate && o.status == StatusRetried {
					cm.Status = string(StatusRetried)
					cm.Attempts = o.attempts
				}
			} else if hasFate && (o.status == StatusFailed || o.status == StatusSkipped) {
				cm.Status = string(o.status)
				cm.Attempts = o.attempts
				if o.err != nil {
					cm.Error = o.err.Error()
				}
			} else {
				continue
			}
			r.Cells = append(r.Cells, cm)
		}
	}
}

// cellFailures lists the failed and skipped outcomes, in submission order.
func cellFailures(outs []schedOutcome) []CellFailure {
	var fs []CellFailure
	for _, o := range outs {
		if o.status == StatusFailed || o.status == StatusSkipped {
			var errStr string
			if o.err != nil {
				errStr = o.err.Error()
			}
			fs = append(fs, CellFailure{
				Workload: o.workload, Config: o.config,
				Status: o.status, Attempts: o.attempts, Err: errStr,
			})
		}
	}
	return fs
}

// orderedNames returns the healthy workload names present in m, in Table 1
// order. Workloads with any failed or skipped cell are excluded: their
// figure rows would be incomplete, and a partial row is worse than a
// clearly absent one.
func orderedNames(opt Options, m *matrix) []string {
	var names []string
	for _, s := range opt.withDefaults().Workloads {
		if _, ok := m.cells[s.Name]; ok && !m.unhealthy[s.Name] {
			names = append(names, s.Name)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		return plotIndex(names[i]) < plotIndex(names[j])
	})
	return names
}

// orderedCellNames is orderedNames without the health filter: every
// workload that produced a cell or a scheduler outcome, for document
// export.
func orderedCellNames(opt Options, m *matrix) []string {
	present := make(map[string]bool, len(m.cells))
	for name := range m.cells {
		present[name] = true
	}
	for _, o := range m.outcomes {
		present[o.workload] = true
	}
	var names []string
	for _, s := range opt.withDefaults().Workloads {
		if present[s.Name] {
			names = append(names, s.Name)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		return plotIndex(names[i]) < plotIndex(names[j])
	})
	return names
}

func plotIndex(name string) int {
	for i, n := range workload.Names() {
		if n == name {
			return i
		}
	}
	return 1 << 30
}

// Table1 lists the benchmark suite.
func Table1(ctx context.Context, opt Options) (*Result, error) {
	_ = ctx // no simulation cells
	opt = opt.withDefaults()
	r := &Result{ID: "tab1", Title: Title("tab1")}
	t := stats.NewTable(r.Title, "function", "full name", "runtime", "target instrs/invocation")
	for _, s := range opt.Workloads {
		t.AddRowf(s.Name, s.FullName, s.Lang.String(), s.TargetInstr)
		r.set(s.Name, "targetInstr", float64(s.TargetInstr))
	}
	r.Table = t
	return r, nil
}

// Table2 dumps the simulated core parameters.
func Table2(ctx context.Context, opt Options) (*Result, error) {
	_ = ctx // no simulation cells
	r := &Result{ID: "tab2", Title: Title("tab2")}
	c := engine.DefaultConfig()
	t := stats.NewTable(r.Title, "parameter", "value")
	rows := []struct {
		k string
		v string
	}{
		{"Width (instr/cycle)", fmt.Sprintf("%d", c.Width)},
		{"FTQ depth (blocks)", fmt.Sprintf("%d", c.FTQDepth)},
		{"Mispredict penalty", fmt.Sprintf("%d cycles", c.MispredictPenalty)},
		{"Decode resteer penalty", fmt.Sprintf("%d cycles", c.DecodeResteerPenalty)},
		{"BTB", fmt.Sprintf("%d entries, %d-way, %d-bit tags", c.BTB.Entries, c.BTB.Ways, c.BTB.TagBits)},
		{"ITLB", fmt.Sprintf("%d entries, %d-way", c.ITLB.Entries, c.ITLB.Ways)},
		{"L1-I latency", fmt.Sprintf("%d cycles", c.Lat.L1I)},
		{"L1-D latency", fmt.Sprintf("%d cycles", c.Lat.L1D)},
		{"L2 latency", fmt.Sprintf("%d cycles", c.Lat.L2)},
		{"LLC latency", fmt.Sprintf("%d cycles", c.Lat.LLC)},
		{"DRAM latency", fmt.Sprintf("%d cycles", c.Lat.Mem)},
	}
	for _, row := range rows {
		t.AddRow(row.k, row.v)
	}
	r.Table = t
	return r, nil
}

// Fig2 measures per-invocation instruction and branch working sets, one
// scheduler cell per workload (program builds are shared through the cache).
func Fig2(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	cache := opt.Cache
	if cache == nil {
		cache = NewCellCache()
	}
	sets := make(map[string]workload.WorkingSet, len(opt.Workloads))
	var mu sync.Mutex
	sched := newScheduler(ctx, "fig2", opt)
	for _, s := range opt.Workloads {
		s := s
		sched.submit(s.Name, "workingset", func(cctx context.Context, _ int) error {
			if err := opt.Faults.Fire(cctx, faults.Site{
				Experiment: "fig2", Workload: s.Name, Config: "workingset",
			}); err != nil {
				return err
			}
			prog, err := cache.program(s)
			if err != nil {
				return err
			}
			ws, err := workload.MeasureWorkingSet(prog, 42, s.MaxInstr())
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			mu.Lock()
			sets[s.Name] = ws
			mu.Unlock()
			return nil
		})
	}
	outs := sched.wait()
	if opt.FailurePolicy != ContinueOnError || ctx.Err() != nil {
		if err := joinOutcomes(outs, ctx.Err()); err != nil {
			return nil, err
		}
	}

	r := &Result{ID: "fig2", Title: Title("fig2"), Failures: cellFailures(outs)}
	t := stats.NewTable(r.Title, "function", "instr WS (KiB)", "branch WS (BTB entries)", "dyn instrs")
	var kibs, ents []float64
	for _, s := range opt.Workloads {
		ws, ok := sets[s.Name]
		if !ok {
			continue
		}
		kib := float64(ws.InstrBytes) / 1024
		t.AddRowf(s.Name, kib, ws.BTBEntries, ws.DynInstr)
		r.set(s.Name, "instrKiB", kib)
		r.set(s.Name, "btbEntries", float64(ws.BTBEntries))
		kibs = append(kibs, kib)
		ents = append(ents, float64(ws.BTBEntries))
	}
	t.AddRowf("Mean", stats.Mean(kibs), stats.Mean(ents), "")
	r.set("Mean", "instrKiB", stats.Mean(kibs))
	r.set("Mean", "btbEntries", stats.Mean(ents))
	r.Table = t
	return r, nil
}

// Fig1 compares CPI stacks between back-to-back and interleaved execution
// under the baseline next-line prefetcher.
func Fig1(ctx context.Context, opt Options) (*Result, error) {
	configs := []runConfig{
		{Name: "b2b", Kind: sim.KindNL, Mode: lukewarm.BackToBack},
		{Name: "interleaved", Kind: sim.KindNL, Mode: lukewarm.Interleaved},
	}
	m, err := runMatrix(ctx, "fig1", opt, configs)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig1", Title: Title("fig1")}
	t := stats.NewTable(r.Title,
		"function", "mode", "CPI", "retiring", "fetch", "badspec", "backend")
	var degr, feShare []float64
	for _, name := range orderedNames(opt, m) {
		b2b := m.cells[name]["b2b"].Res
		il := m.cells[name]["interleaved"].Res
		for _, pair := range []struct {
			mode string
			res  *lukewarm.Result
		}{{"back-to-back", b2b}, {"interleaved", il}} {
			st := pair.res.CPIStack()
			t.AddRowf(name, pair.mode, st.Total(), st.Retiring, st.Fetch, st.BadSpec, st.Backend)
			r.set(name+"/"+pair.mode, "cpi", st.Total())
			r.set(name+"/"+pair.mode, "frontend", st.FrontEnd())
			r.set(name+"/"+pair.mode, "backend", st.Backend)
		}
		d := (il.CPI() - b2b.CPI()) / b2b.CPI() * 100
		fe := (il.CPIStack().FrontEnd() - b2b.CPIStack().FrontEnd()) / (il.CPI() - b2b.CPI())
		degr = append(degr, d)
		feShare = append(feShare, fe)
		r.set(name, "degradationPct", d)
		r.set(name, "frontendShare", fe)
	}
	t.AddRowf("Mean", "CPI increase", fmt.Sprintf("%.0f%%", stats.Mean(degr)),
		"front-end share of degradation", fmt.Sprintf("%.0f%%", stats.Mean(feShare)*100), "", "")
	r.set("Mean", "degradationPct", stats.Mean(degr))
	r.set("Mean", "frontendShare", stats.Mean(feShare))
	r.Table = t
	attachCells(r, opt, m)
	return r, nil
}

// speedupExperiment runs a set of configurations (plus the NL baseline) and
// reports per-workload speedups and mean MPKIs.
func speedupExperiment(ctx context.Context, id ID, opt Options, configs []runConfig) (*Result, error) {
	all := append([]runConfig{{Name: "nl", Kind: sim.KindNL, Mode: lukewarm.Interleaved}}, configs...)
	m, err := runMatrix(ctx, id, opt, all)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: id, Title: Title(id)}
	header := []string{"function"}
	for _, c := range configs {
		header = append(header, c.Name)
	}
	t := stats.NewTable(r.Title+" — speedup over NL", header...)
	speedups := map[string][]float64{}
	for _, name := range orderedNames(opt, m) {
		base := m.cells[name]["nl"].Res.CPI()
		row := []interface{}{name}
		for _, c := range configs {
			s := base / m.cells[name][c.Name].Res.CPI()
			row = append(row, s)
			r.set(name, c.Name+"/speedup", s)
			speedups[c.Name] = append(speedups[c.Name], s)
		}
		t.AddRowf(row...)
	}
	meanRow := []interface{}{"Mean"}
	for _, c := range configs {
		mean := stats.GeoMean(speedups[c.Name])
		meanRow = append(meanRow, mean)
		r.set("Mean", c.Name+"/speedup", mean)
	}
	t.AddRowf(meanRow...)

	// Mean MPKI block (incl. the NL baseline).
	t2 := stats.NewTable("Mean miss rates", "config", "L1I MPKI", "BTB MPKI", "CBP MPKI", "BPU MPKI")
	for _, c := range all {
		var l1, btbM, cbp []float64
		for _, name := range orderedNames(opt, m) {
			res := m.cells[name][c.Name].Res
			l1 = append(l1, res.L1IMPKI())
			btbM = append(btbM, res.BTBMPKI())
			cbp = append(cbp, res.CBPMPKI())
		}
		t2.AddRowf(c.Name, stats.Mean(l1), stats.Mean(btbM), stats.Mean(cbp), stats.Mean(btbM)+stats.Mean(cbp))
		r.set("Mean", c.Name+"/l1impki", stats.Mean(l1))
		r.set("Mean", c.Name+"/btbmpki", stats.Mean(btbM))
		r.set("Mean", c.Name+"/cbpmpki", stats.Mean(cbp))
	}
	r.Table = t
	r.Table2 = t2
	attachCells(r, opt, m)
	return r, nil
}
