package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ignite/internal/dist"
	"ignite/internal/experiments"
	"ignite/internal/obs"
	"ignite/internal/store"
	"ignite/internal/workload"
)

const (
	// budgetSweep is the per-invocation instruction budget of sweep-all and
	// sweep-dist.
	budgetSweep = 20000
	// budgetWarm is sweep-warm's budget: small, because set-up computes
	// the whole 20-function matrix cold several times.
	budgetWarm = 5000
	// storeOpens is how many fresh stores sweep-all opens to time its
	// set-up (each measured sweep opens one more).
	storeOpens = 9
	// warmFills is how many times sweep-warm fills a fresh store.
	warmFills = 3
	// distWorkers is the size of sweep-dist's worker fleet.
	distWorkers = 2
	// perLang is how many functions per language runtime sweep-all and
	// sweep-dist run.
	perLang = 1
)

// sloLimit is the latency limit of a request, per workload: about twice
// what a healthy run takes for a whole sweep, and 50 ms for a served
// invocation.
var sloLimit = map[string]time.Duration{
	"sweep-all":  15 * time.Second,
	"sweep-warm": time.Second,
	"sweep-dist": 3 * time.Second,
	"serve-mix":  50 * time.Millisecond,
}

// group classifies an experiment for the experiments.* layer metrics.
func group(id experiments.ID) string {
	switch s := string(id); {
	case strings.HasPrefix(s, "abl-"):
		return "ablation"
	case strings.HasPrefix(s, "fleet-"):
		return "fleet"
	}
	return "paper"
}

// sweepStats is what one measured sweep produced.
type sweepStats struct {
	wall, cpu time.Duration
	docs      docDigests
	groupWall map[string]time.Duration
	groupCPU  map[string]time.Duration
	render    time.Duration
	obsv      *cellObserver
	// Document requests: latency samples (ms), how many met the SLO limit,
	// and how many were attempted and failed.
	req               Samples
	sloOK             int
	attempted, failed int
}

// runSweep runs the experiments in order through opt's cell cache, as one
// measured sweep. Each experiment is one document request. The user asks
// for every document when the sweep starts, so, as on serve-mix where a
// request is timed from when it was due, a document's latency runs from the
// start of the sweep until its table is rendered. The sweep ends when every
// document is encoded.
func (w *runner) runSweep(ids []experiments.ID, opt experiments.Options, obsv *cellObserver, parent int) *sweepStats {
	st := &sweepStats{groupWall: map[string]time.Duration{}, groupCPU: map[string]time.Duration{}, obsv: obsv}
	opt.Tracer = obsv
	opt.Checks = w.traced
	opt.Parallel = runtime.NumCPU()
	limit := sloLimit[w.workload]
	var results []*experiments.Result
	cpu0, t0 := selfCPU(), time.Now()
	for _, id := range ids {
		sp := w.rec.begin("experiments.Run", string(id), parent)
		obsv.setParent(sp)
		c0, s0 := selfCPU(), time.Now()
		res, err := experiments.Run(context.Background(), id, opt)
		w.rec.end(sp)
		st.attempted++
		if err != nil || len(res.Failures) > 0 {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v (%d failed cells)\n", id, err, failures(res))
			continue
		}
		r0 := time.Now()
		_ = res.Render()
		end := time.Now()
		w.rec.add("render", string(id), sp, r0, end)
		st.render += end.Sub(r0)
		results = append(results, res)
		st.groupWall[group(id)] += end.Sub(s0)
		st.groupCPU[group(id)] += selfCPU() - c0
		lat := end.Sub(t0)
		st.req = append(st.req, ms(lat))
		if lat <= limit {
			st.sloOK++
		}
	}
	// Documents carry the cell cache's occupancy at export time, which
	// ignite-bench stamps once after the last experiment; do the same.
	r0 := time.Now()
	man := opt.Manifest()
	for _, res := range results {
		if err := st.docs.add(string(res.ID), res.Document(man)); err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	end := time.Now()
	w.rec.add("documents", "", parent, r0, end)
	st.render += end.Sub(r0)
	st.wall, st.cpu = end.Sub(t0), selfCPU()-cpu0
	obsv.mu.Lock()
	st.failed += obsv.failed
	obsv.mu.Unlock()
	return st
}

// addSweep folds one measured sweep into the end-to-end statistics. cpu is
// the CPU of every process that did the sweep's work.
func (e *e2eStats) addSweep(st *sweepStats, cpu time.Duration) {
	e.wall = append(e.wall, st.wall.Seconds())
	e.cpu = append(e.cpu, cpu.Seconds())
	e.req = append(e.req, st.req...)
	e.sloOK += st.sloOK
	e.sloTotal += st.attempted
	e.attempted += st.attempted
	e.failed += st.failed
	st.obsv.mu.Lock()
	e.cold = append(e.cold, st.obsv.cold...)
	st.obsv.mu.Unlock()
}

func failures(res *experiments.Result) int {
	if res == nil {
		return 0
	}
	return len(res.Failures)
}

// sweepLayers accumulates the experiments.* layer metrics over sweeps.
type sweepLayers struct {
	groupWall, groupCPU map[string]time.Duration
	render              time.Duration
	docs                int
	requests, hits      int
	cellMs              Samples
	loads, storeHits    uint64
}

func (l *sweepLayers) add(st *sweepStats, ndocs int) {
	if l.groupWall == nil {
		l.groupWall, l.groupCPU = map[string]time.Duration{}, map[string]time.Duration{}
	}
	for g, d := range st.groupWall {
		l.groupWall[g] += d
		l.groupCPU[g] += st.groupCPU[g]
	}
	l.render += st.render
	l.docs += ndocs
	st.obsv.mu.Lock()
	l.requests += st.obsv.requests
	l.hits += st.obsv.hits
	l.cellMs = append(l.cellMs, st.obsv.cold...)
	st.obsv.mu.Unlock()
}

// report sets the experiments.* and store hit metrics, per sweep.
func (l *sweepLayers) report(w *runner, sweeps int) {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(max(sweeps, 1)) }
	for _, g := range []string{"paper", "ablation", "fleet"} {
		w.set("experiments."+g+"_s", "s", per(l.groupWall[g]), sweeps)
		w.set("experiments.parallelism_"+g, "ratio", share(l.groupCPU[g].Seconds(), l.groupWall[g].Seconds()), sweeps)
	}
	w.setPercentiles("experiments.cell_ms", l.cellMs)
	w.set("experiments.cells_computed", "count", float64(len(l.cellMs))/float64(max(sweeps, 1)), sweeps)
	w.set("experiments.cell_requests", "count", float64(l.requests)/float64(max(sweeps, 1)), sweeps)
	w.set("experiments.cache_hit_share", "ratio", share(float64(l.hits), float64(l.requests)), l.requests)
	w.set("experiments.render_ms", "ms", share(ms(l.render), float64(l.docs)), l.docs)
	w.set("store.loads", "count", float64(l.loads)/float64(max(sweeps, 1)), sweeps)
	w.set("store.hit_share", "ratio", share(float64(l.storeHits), float64(l.loads)), int(l.loads))
}

// sweepAll: every registered experiment, in-process, over one function per
// language runtime, through a fresh cell cache bound to a fresh store.
func sweepAll(w *runner) error {
	specs := pickFunctions(w.seed, budgetSweep, perLang)
	ids := experiments.IDs()
	for i := 0; i < storeOpens; i++ {
		if _, err := w.openStore(); err != nil {
			return err
		}
	}
	var layers sweepLayers
	start := time.Now()
	var last time.Duration
	for u := 0; w.more(start, u, last); u++ {
		st, err := w.openStore()
		if err != nil {
			return err
		}
		cc := experiments.NewCellCache()
		stats := &experiments.StoreStats{}
		experiments.BindStore(cc, st, stats)
		sp := w.rec.begin("sweep", "", -1)
		res := w.runSweep(ids, experiments.Options{Workloads: specs, Cache: cc}, &cellObserver{rec: w.rec, parent: sp}, sp)
		w.rec.end(sp)
		last = res.wall
		w.e.addSweep(res, res.cpu)
		layers.add(res, len(ids))
		layers.loads += stats.Hits.Value() + stats.Misses.Value()
		layers.storeHits += stats.Hits.Value()
		w.check.stored(w.stored, w.workload, digestKey(w.workload, w.seed, 0), res.docs.digest())
		if err := os.RemoveAll(st.Dir()); err != nil {
			return err
		}
	}
	w.e.peak = selfPeakRSS()
	if w.traced {
		layers.report(w, len(w.e.wall))
		return w.layerWalk(specs)
	}
	return nil
}

// openStore opens a fresh, empty store under the run's scratch directory.
// It times one set-up sample: what a reproduction run pays before its first
// experiment, which is starting an ignite-bench process (until it has
// listed its experiments and exited) plus opening the store.
func (w *runner) openStore() (*store.Store, error) {
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := exec.Command(filepath.Join(w.bin, "ignite-bench"), "-list").Run(); err != nil {
		return nil, fmt.Errorf("start ignite-bench: %w", err)
	}
	st, err := store.Open(dir)
	w.e.setup = append(w.e.setup, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return st, nil
}

// functionNames joins spec names for an ignite-bench -workloads flag.
func functionNames(specs []workload.Spec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ",")
}

// benchDocs computes a matrix cold in an ignite-bench process, which writes
// its documents and, with persist, every cell into a store. It returns the
// directory it used (the store is its "cells" subdirectory) and the digests
// of the documents.
func (w *runner) benchDocs(ids []experiments.ID, specs []workload.Spec, budget uint64, persist bool) (string, *docDigests, error) {
	dir, err := os.MkdirTemp(w.scratch, "bench-")
	if err != nil {
		return "", nil, err
	}
	idList := make([]string, len(ids))
	for i, id := range ids {
		idList[i] = string(id)
	}
	docsDir := filepath.Join(dir, "docs")
	args := []string{"-exp", strings.Join(idList, ","), "-workloads", functionNames(specs),
		"-target-instr", strconv.FormatUint(budget, 10), "-parallel", strconv.Itoa(runtime.NumCPU()),
		"-out", docsDir}
	if persist {
		args = append(args, "-store", filepath.Join(dir, "cells"))
	}
	cmd := exec.Command(filepath.Join(w.bin, "ignite-bench"), args...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		return "", nil, fmt.Errorf("ignite-bench: %v\n%s", err, stderr.Bytes())
	}
	var docs docDigests
	for _, id := range idList {
		data, err := os.ReadFile(filepath.Join(docsDir, id+".json"))
		if err != nil {
			return "", nil, err
		}
		doc, err := obs.DecodeDocument(data)
		if err != nil {
			return "", nil, err
		}
		if err := docs.add(id, doc); err != nil {
			return "", nil, err
		}
	}
	return dir, &docs, nil
}

// sweepWarm: the paper's tables and figures over all 20 functions, each
// sweep with a fresh cell cache over a store that set-up filled, so every
// cell is a store hit. Its inputs are fixed: the seed changes nothing.
func sweepWarm(w *runner) error {
	specs := allFunctions(budgetWarm)
	ids := experiments.PaperIDs()
	var st *store.Store
	var cold *docDigests
	for i := 0; i < warmFills; i++ {
		t0 := time.Now()
		dir, docs, err := w.benchDocs(ids, specs, budgetWarm, true)
		if err != nil {
			return err
		}
		s, err := store.Open(filepath.Join(dir, "cells"))
		if err != nil {
			return err
		}
		w.e.setup = append(w.e.setup, time.Since(t0).Seconds())
		if i == 0 {
			st, cold = s, docs
		} else if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	var layers sweepLayers
	start := time.Now()
	var last time.Duration
	for u := 0; w.more(start, u, last); u++ {
		cc := experiments.NewCellCache()
		stats := &experiments.StoreStats{}
		experiments.BindStore(cc, st, stats)
		sp := w.rec.begin("sweep", "", -1)
		res := w.runSweep(ids, experiments.Options{Workloads: specs, Cache: cc}, &cellObserver{rec: w.rec, parent: sp}, sp)
		w.rec.end(sp)
		last = res.wall
		w.e.addSweep(res, res.cpu)
		layers.add(res, len(ids))
		layers.loads += stats.Hits.Value() + stats.Misses.Value()
		layers.storeHits += stats.Hits.Value()
		got := res.docs.digest()
		w.check.expect("warm documents equal the cold set-up documents", got, cold.digest())
		w.check.stored(w.stored, w.workload, digestKey(w.workload, w.seed, 0), got)
	}
	w.e.peak = selfPeakRSS()
	if w.traced {
		layers.report(w, len(w.e.wall))
		return w.layerWalk(pickFunctions(w.seed, budgetWarm, perLang))
	}
	return nil
}

// fleet is one supervised loopback worker fleet with a coordinator.
type fleet struct {
	super *dist.Supervisor
	coord *dist.Coordinator
	reg   *obs.Registry
	mu    sync.Mutex
	cmds  []*exec.Cmd
}

func (w *runner) startFleet() (*fleet, error) {
	f := &fleet{reg: obs.NewRegistry()}
	exe := filepath.Join(w.bin, "ignite-bench")
	t0 := time.Now()
	super, err := dist.StartSupervisor(dist.SupervisorOptions{
		Workers: distWorkers,
		Command: func(addr string) (*exec.Cmd, error) {
			cmd := exec.Command(exe, "-worker", "-listen", addr)
			f.mu.Lock()
			f.cmds = append(f.cmds, cmd)
			f.mu.Unlock()
			return cmd, nil
		},
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: supervisor: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	f.super = super
	f.coord, err = dist.NewCoordinator(dist.CoordinatorOptions{Addrs: super.Addrs()})
	if err != nil {
		super.Close()
		return nil, err
	}
	w.e.setup = append(w.e.setup, time.Since(t0).Seconds())
	f.coord.RegisterMetrics(f.reg)
	return f, nil
}

// pids returns the fleet's worker processes as first spawned.
// StartSupervisor started them before it returned; a restarted worker
// would be a new process, and reading its stale pid fails the run.
func (f *fleet) pids() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, distWorkers)
	for _, c := range f.cmds[:distWorkers] {
		out = append(out, c.Process.Pid)
	}
	return out
}

func (f *fleet) close() {
	f.coord.Close()
	f.super.Close()
}

// remoteTimer wraps a coordinator's RemoteFunc with a span and a latency
// sample per call, and remembers the specs it shipped.
type remoteTimer struct {
	w     *runner
	inner experiments.RemoteFunc
	mu    sync.Mutex
	lat   Samples
	specs []experiments.CellSpec
}

func (r *remoteTimer) call(ctx context.Context, cs experiments.CellSpec, env experiments.CellEnv) (experiments.CellPayload, error) {
	t0 := time.Now()
	p, err := r.inner(ctx, cs, env)
	end := time.Now()
	r.w.rec.add("dist.Remote", cs.Workload.Name+"/"+string(cs.Config), -1, t0, end)
	r.mu.Lock()
	r.lat = append(r.lat, ms(end.Sub(t0)))
	r.specs = append(r.specs, cs)
	r.mu.Unlock()
	return p, err
}

// sweepDist: the paper's tables and figures dispatched by a coordinator to
// a fresh fleet of supervised loopback workers per sweep. Each sweep takes
// the next function pick of the seed's sequence, so a run's medians span
// several picks instead of resting on one. Before each sweep, ignite-bench
// computes the same matrix in-process: the reference its documents must
// equal, and the denominator of dist.local_ratio.
func sweepDist(w *runner) error {
	ids := experiments.PaperIDs()
	var layers sweepLayers
	var remote, roundtrip, peaks, ratios Samples
	counters := map[string]float64{}
	var lastSpecs []workload.Spec
	start := time.Now()
	var last time.Duration
	for u := 0; w.more(start, u, last); u++ {
		specs := pickFunctionsAt(w.seed, uint64(u), budgetSweep, perLang)
		lastSpecs = specs
		t0 := time.Now()
		dir, ref, err := w.benchDocs(ids, specs, budgetSweep, false)
		if err != nil {
			return err
		}
		local := time.Since(t0)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		f, err := w.startFleet()
		if err != nil {
			return err
		}
		rt := &remoteTimer{w: w, inner: f.coord.Remote()}
		cc := experiments.NewCellCache()
		cc.SetRemote(rt.call)
		pids := f.pids()
		before, err := procUsage(pids)
		if err != nil {
			f.close()
			return err
		}
		sp := w.rec.begin("sweep", "", -1)
		res := w.runSweep(ids, experiments.Options{Workloads: specs, Cache: cc}, &cellObserver{rec: w.rec, parent: sp}, sp)
		w.rec.end(sp)
		after, err := procUsage(pids)
		if err != nil {
			f.close()
			return err
		}
		// The next unit runs its reference first: leave room for it.
		last = time.Since(t0)
		w.e.addSweep(res, res.cpu+after.cpu-before.cpu)
		peaks = append(peaks, float64(selfPeakRSS()+after.peak))
		ratios = append(ratios, share(res.wall.Seconds(), local.Seconds()))
		layers.add(res, len(ids))
		got := res.docs.digest()
		w.check.expect("dist documents equal the in-process documents", got, ref.digest())
		w.check.stored(w.stored, w.workload, picksKey(specs), got)
		remote = append(remote, rt.lat...)
		for _, s := range f.reg.Snapshot() {
			counters[s.Name] += s.Value
		}
		if w.traced {
			rts, err := warmRoundTrips(f, rt.specs)
			if err != nil {
				f.close()
				return err
			}
			roundtrip = append(roundtrip, rts...)
		}
		f.close()
	}
	// Each sweep has a fresh fleet: report the median of its peaks.
	w.e.peak = uint64(peaks.Median())
	if w.traced {
		n := len(w.e.wall)
		layers.report(w, n)
		per := func(name string) float64 { return counters[name] / float64(max(n, 1)) }
		for _, c := range []string{"tasks", "steals", "failovers", "hedges", "hedge_wins"} {
			w.set("dist."+c, "count", per("dist."+c), n)
		}
		hedges := counters["dist.hedges"]
		w.set("dist.hedge_waste_share", "ratio", share(hedges-counters["dist.hedge_wins"], hedges), int(hedges))
		w.setPercentiles("dist.remote_ms", remote)
		w.set("dist.roundtrip_ms", "ms", roundtrip.Median(), roundtrip.N())
		w.set("dist.local_ratio", "ratio", ratios.Median(), ratios.N())
		return w.layerWalk(lastSpecs)
	}
	return nil
}

// roundTrips is how many cells per sweep the warm round-trip pass re-sends.
const roundTrips = 10

// warmRoundTrips times cells answered from a worker's warm cache: through a
// coordinator bound to the first worker alone, each cell is sent twice and
// the second call, which the worker answers from its cell cache, is timed.
// What remains is the wire: encode, HTTP and decode.
func warmRoundTrips(f *fleet, specs []experiments.CellSpec) (Samples, error) {
	coord, err := dist.NewCoordinator(dist.CoordinatorOptions{Addrs: f.super.Addrs()[:1]})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	remote := coord.Remote()
	var out Samples
	for _, cs := range specs[:min(roundTrips, len(specs))] {
		if _, err := remote(context.Background(), cs, experiments.CellEnv{}); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := remote(context.Background(), cs, experiments.CellEnv{}); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}
