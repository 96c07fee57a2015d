package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// quickOpts runs experiments on two small workloads with shortened
// invocations for test speed.
func quickOpts(t *testing.T) Options {
	t.Helper()
	var specs []workload.Spec
	for _, name := range []string{"Fib-G", "Auth-G"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.TargetInstr /= 2
		specs = append(specs, s)
	}
	return Options{Workloads: specs, Parallel: 2}
}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) < 19 {
		t.Fatalf("got %d experiments, want >= 19 (15 paper + 4 ablations)", len(ids))
	}
	has := map[ID]bool{}
	for _, id := range ids {
		has[id] = true
	}
	for _, want := range []ID{"fig1", "fig8", "fig12", "abl-codec", "abl-throttle", "abl-btb", "abl-metadata"} {
		if !has[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("no title for %s", id)
		}
	}
	var unknown *UnknownIDError
	if _, err := Run(context.Background(), "nope", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	} else if !errors.As(err, &unknown) {
		t.Errorf("unknown-experiment error has wrong type: %v", err)
	} else if len(unknown.Valid) != len(ids) {
		t.Errorf("UnknownIDError lists %d valid IDs, want %d", len(unknown.Valid), len(ids))
	}
}

func TestTables(t *testing.T) {
	r1, err := Run(context.Background(), "tab1", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r1.Render(), "Fib-G") {
		t.Error("tab1 missing workload")
	}
	r2, err := Run(context.Background(), "tab2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Render(), "12288 entries") {
		t.Errorf("tab2 missing BTB geometry:\n%s", r2.Render())
	}
}

func TestFig1ShowsDegradation(t *testing.T) {
	r, err := Run(context.Background(), "fig1", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Get("Mean", "degradationPct") < 30 {
		t.Errorf("CPI degradation %.0f%% too small", r.Get("Mean", "degradationPct"))
	}
	if r.Get("Mean", "frontendShare") < 0.4 {
		t.Errorf("front-end share %.2f should dominate", r.Get("Mean", "frontendShare"))
	}
}

func TestFig2WorkingSets(t *testing.T) {
	r, err := Run(context.Background(), "fig2", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Get("Fib-G", "btbEntries") < 1000 {
		t.Errorf("Fib-G branch WS %.0f too small", r.Get("Fib-G", "btbEntries"))
	}
}

func TestFig8HeadlineResult(t *testing.T) {
	r, err := Run(context.Background(), "fig8", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	ignite := r.Get("Mean", "ignite/speedup")
	bjb := r.Get("Mean", "boomerang+jb/speedup")
	tage := r.Get("Mean", "ignite+tage/speedup")
	ideal := r.Get("Mean", "ideal/speedup")
	if !(ignite > bjb) {
		t.Errorf("Ignite (%.2f) must beat Boomerang+JB (%.2f)", ignite, bjb)
	}
	if !(tage >= ignite) {
		t.Errorf("Ignite+TAGE (%.2f) must be >= Ignite (%.2f)", tage, ignite)
	}
	if !(ideal >= tage) {
		t.Errorf("Ideal (%.2f) must bound Ignite+TAGE (%.2f)", ideal, tage)
	}
	// MPKI reductions.
	if r.Get("Mean", "ignite/btbmpki") >= r.Get("Mean", "boomerang+jb/btbmpki")*1.5 {
		t.Error("Ignite BTB MPKI should not exceed Boomerang+JB substantially")
	}
	if r.Get("Mean", "ignite/cbpmpki") >= r.Get("Mean", "nl/cbpmpki") {
		t.Error("Ignite must reduce CBP MPKI vs NL")
	}
}

func TestFig11PolicyOrdering(t *testing.T) {
	r, err := Run(context.Background(), "fig11", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	wt := r.Get("Mean", "bim-wt/speedup")
	wnt := r.Get("Mean", "bim-wnt/speedup")
	if wt <= wnt {
		t.Errorf("weakly-taken (%.3f) must beat weakly-not-taken (%.3f)", wt, wnt)
	}
}

func TestFig9cAccuracyBounds(t *testing.T) {
	r, err := Run(context.Background(), "fig9c", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"l2OverPct", "btbOverPct", "cbpInducedPct"} {
		v := r.Get("Mean", col)
		if v < 0 || v > 100 {
			t.Errorf("%s = %.1f out of range", col, v)
		}
	}
	// Ignite is highly accurate: restored state is mostly used.
	if r.Get("Mean", "btbOverPct") > 50 {
		t.Errorf("BTB overprediction %.1f%% too high", r.Get("Mean", "btbOverPct"))
	}
}

func TestFig10TrafficBreakdown(t *testing.T) {
	r, err := Run(context.Background(), "fig10", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Ignite has metadata traffic; NL has none.
	if r.Get("nl", "recordKiB")+r.Get("nl", "replayKiB") != 0 {
		t.Error("NL has metadata traffic")
	}
	if r.Get("ignite", "replayKiB") == 0 {
		t.Error("Ignite shows no replay metadata traffic")
	}
	if r.Get("nl", "totalKiB") == 0 {
		t.Error("no traffic measured")
	}
}

func TestAblCodecFindsPaperSweetSpot(t *testing.T) {
	r, err := Run(context.Background(), "abl-codec", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 7/21 configuration must beat both a too-narrow and the
	// swapped configuration on bits per record.
	best := r.Get("7/21", "bitsPerRecord")
	if best <= 0 {
		t.Fatal("no data for 7/21")
	}
	if swapped := r.Get("21/7", "bitsPerRecord"); swapped <= best {
		t.Errorf("swapped widths (%.1f b/rec) should be worse than 7/21 (%.1f)", swapped, best)
	}
}

func TestAblThrottleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	opt := quickOpts(t)
	opt.Workloads = opt.Workloads[:1]
	r, err := Run(context.Background(), "abl-throttle", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"64", "1024", "unthrottled"} {
		if r.Get(row, "speedup") <= 0.5 {
			t.Errorf("threshold %s: implausible speedup %.2f", row, r.Get(row, "speedup"))
		}
	}
}

func TestFig5WarmCBPComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := Run(context.Background(), "fig5", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	cold := r.Get("Mean", "btb-warm-cbp-cold/cbpmpki")
	bim := r.Get("Mean", "+bim-warm/cbpmpki")
	tage := r.Get("Mean", "+tage-warm/cbpmpki")
	if !(bim < cold) {
		t.Errorf("warm BIM CBP MPKI %.2f should be below cold %.2f", bim, cold)
	}
	if !(tage < bim) {
		t.Errorf("warm TAGE CBP MPKI %.2f should be below BIM-only %.2f", tage, bim)
	}
}

func TestFig12TemporalStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := Run(context.Background(), "fig12", quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	cf := r.Get("Mean", "confluence/speedup")
	cfi := r.Get("Mean", "confluence+ignite/speedup")
	if !(cfi > cf) {
		t.Errorf("Confluence+Ignite (%.2f) must beat Confluence alone (%.2f)", cfi, cf)
	}
	// Ignite's BPU restore must cut Confluence's BPU misses substantially.
	if r.Get("Mean", "confluence+ignite/btbmpki") >= r.Get("Mean", "confluence/btbmpki") {
		t.Error("Confluence+Ignite did not reduce BTB MPKI")
	}
}

// TestRunMatrixAggregatesFailures checks the scheduler's error contract:
// every failing cell is reported (errors.Join), not just the first, and a
// failure cancels outstanding cells instead of simulating a doomed run to
// completion.
func TestRunMatrixAggregatesFailures(t *testing.T) {
	opt := quickOpts(t)
	opt.Parallel = 1 // serialize so cancellation after failure #1 is observable
	_, err := runMatrix(context.Background(), "test", opt, []runConfig{
		{Name: "bogus", Kind: sim.Kind("no-such-config"), Mode: lukewarm.Interleaved},
	})
	if err == nil {
		t.Fatal("runMatrix accepted an unknown configuration")
	}
	if !strings.Contains(err.Error(), "unknown configuration") {
		t.Errorf("error lost the cause: %v", err)
	}
	// With Parallel=1 the first failure cancels the second workload's cell,
	// so exactly one error surfaces; with wider pools both may run. Either
	// way the run must fail and name the workload/config.
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error lost the cell name: %v", err)
	}
}

// cellDoneCounter counts scheduler CellDone events per experiment.
type cellDoneCounter struct {
	obs.BaseTracer
	mu   sync.Mutex
	done map[string]int
}

func (c *cellDoneCounter) CellDone(e obs.CellDoneEvent) {
	c.mu.Lock()
	c.done[e.Experiment]++
	c.mu.Unlock()
}

// nonSimulating lists the experiments that run no lukewarm simulation cell:
// closed-form tables, fig2's working-set walks, the codec study's bare
// recorder runs, and the analytic fleet market.
var nonSimulating = map[ID]bool{
	"tab1": true, "tab2": true, "fig2": true, "abl-codec": true,
	"fleet-pop": true, "fleet-frontier": true,
}

// TestChecksAllExperiments runs every registered experiment with runtime
// invariant checking enabled: each distinct cell's invocations are audited
// against the conservation laws in internal/check, and any violation fails
// the run. The shared cell cache keeps the sweep affordable — every unique
// (workload, config, mode) cell is simulated (and therefore audited) exactly
// once. Every simulating experiment must run its cells through the
// scheduler, which is what hands them Checks, MaxCycles and the Tracer: an
// experiment that emits no CellDone simulated outside it, unaudited.
func TestChecksAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opt := quickOpts(t)
	// The laws are scale-free, so run the sweep at 1/8 of the full budget:
	// under the race detector on a small machine, every cycle counts.
	for i := range opt.Workloads {
		opt.Workloads[i].TargetInstr /= 4
	}
	opt.Parallel = 8
	opt.Cache = NewCellCache()
	opt.Checks = true
	counter := &cellDoneCounter{done: map[string]int{}}
	opt.Tracer = counter
	if _, err := RunAll(context.Background(), IDs(), opt); err != nil {
		t.Fatalf("invariant violation while running all experiments: %v", err)
	}
	if cells, _ := opt.Cache.Stats(); cells == 0 {
		t.Fatal("no cells simulated")
	}
	for _, id := range IDs() {
		if !nonSimulating[id] && counter.done[string(id)] == 0 {
			t.Errorf("%s ran no cell through the scheduler, so checks never audited it", id)
		}
	}
}

// TestAblationsStayOutOfSharedCache pins the ablations' side cache: a sweep
// with them leaves the shared cache's Stats — and so every manifest's
// cacheCells/cacheHits — exactly as a sweep without them, while their
// cells still reuse the shared program and trace memos. Each workload's
// program is built once for the whole sweep.
func TestAblationsStayOutOfSharedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	opt := quickOpts(t)
	for i := range opt.Workloads {
		opt.Workloads[i].TargetInstr /= 8
	}
	var noAbl []ID
	for _, id := range IDs() {
		if !strings.HasPrefix(string(id), "abl-") {
			noAbl = append(noAbl, id)
		}
	}
	sweep := func(ids []ID) *CellCache {
		o := opt
		o.Cache = NewCellCache()
		if _, err := RunAll(context.Background(), ids, o); err != nil {
			t.Fatal(err)
		}
		return o.Cache
	}
	all, base := sweep(IDs()), sweep(noAbl)
	gotCells, gotHits := all.Stats()
	wantCells, wantHits := base.Stats()
	if gotCells != wantCells || gotHits != wantHits {
		t.Errorf("with ablations Stats() = (%d cells, %d hits), without = (%d, %d)",
			gotCells, gotHits, wantCells, wantHits)
	}
	if n := len(all.memo.progs); n != len(opt.Workloads) {
		t.Errorf("built %d programs for %d workloads", n, len(opt.Workloads))
	}
	if got, want := len(all.memo.traces), len(base.memo.traces); got != want {
		t.Errorf("ablations walked %d traces of their own", got-want)
	}
}
