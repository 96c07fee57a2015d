package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ignite/internal/faults"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

func smallSpec(t *testing.T) workload.Spec {
	t.Helper()
	s, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	s.TargetInstr = 20_000
	return s
}

// TestTweaksCanonical pins the folding the simulation memo keys on: a cell
// built with a tweak set to its default value simulates exactly like the
// untweaked cell (same lukewarm.Result, same metric snapshot), so merging
// their simulations is safe. A non-default value keeps its own key.
func TestTweaksCanonical(t *testing.T) {
	spec := smallSpec(t)
	wt := ignite.BIMWeaklyTaken
	base := runConfig{Kind: sim.KindIgnite, Mode: lukewarm.Interleaved}
	compute := func(rc runConfig) *cell {
		t.Helper()
		c, err := NewCellCache().compute(spec, rc, cellEnv{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	want := compute(base)
	for _, tc := range []struct {
		name string
		tw   sim.Tweaks
	}{
		{"BIMPolicy", sim.Tweaks{BIMPolicy: &wt}},
		{"ThrottleThreshold", sim.Tweaks{ThrottleThreshold: 1024}},
		{"MetadataBytes", sim.Tweaks{MetadataBytes: 120 << 10}},
		{"BTBEntries", sim.Tweaks{BTBEntries: 12288}},
		{"L2KiB", sim.Tweaks{L2KiB: 1280}},
	} {
		if got := tc.tw.Canonical(); !reflect.DeepEqual(got, sim.Tweaks{}) {
			t.Errorf("%s: Canonical() = %+v, want the zero Tweaks", tc.name, got)
			continue
		}
		rc := base
		rc.Tweak = tc.tw
		got := compute(rc)
		if !reflect.DeepEqual(got.Res, want.Res) {
			t.Errorf("%s: the explicit default's lukewarm.Result differs from the untweaked cell's", tc.name)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s: the explicit default's metric snapshot differs from the untweaked cell's", tc.name)
		}
		if simKey(spec, rc) != simKey(spec, base) {
			t.Errorf("%s: simKey does not merge the explicit default with the untweaked cell", tc.name)
		}
	}
	small := sim.Tweaks{BTBEntries: 6144}
	if got := small.Canonical(); got != small {
		t.Errorf("Canonical() folded a non-default BTB size: %+v", got)
	}
	rc := base
	rc.Tweak = small
	if simKey(spec, rc) == simKey(spec, base) {
		t.Error("a 6144-entry BTB cell shares the default cell's simulation key")
	}
}

// simCounter records every CellDone event by experiment and config.
type simCounter struct {
	obs.BaseTracer
	mu     sync.Mutex
	cached map[string]bool
	ran    int
}

func (c *simCounter) CellDone(e obs.CellDoneEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cached[e.Experiment+"/"+e.Config] = e.Cached
	if !e.Cached {
		c.ran++
	}
}

// TestSimMemoSharesDuplicateCells runs the paper experiments followed by the
// ablations on one workload. Every distinct simulation runs once: fig11's
// bim-wt is the default ignite cell, and each ablation's default-valued
// cells are paper cells, so they report Cached. The cell table's books are
// untouched by the memo: Stats matches the counts recorded before it
// existed, so every manifest stays byte-identical.
func TestSimMemoSharesDuplicateCells(t *testing.T) {
	counter := &simCounter{cached: map[string]bool{}}
	cc := NewCellCache()
	opt := Options{Workloads: []workload.Spec{smallSpec(t)}, Parallel: 2, Cache: cc, Tracer: counter}
	if _, err := RunAll(context.Background(), IDs(), opt); err != nil {
		t.Fatal(err)
	}
	if sims := len(cc.memo.sims); counter.ran != sims {
		t.Errorf("ran %d simulations for %d distinct simulation keys", counter.ran, sims)
	}
	// 19 paper cells less fig11's bim-wt, plus the ablations' 14 cells
	// that are not paper cells.
	if counter.ran != 32 {
		t.Errorf("ran %d simulations, want 32", counter.ran)
	}
	for _, name := range []string{
		"fig11/bim-wt",
		"abl-throttle/nl", "abl-throttle/1024",
		"abl-metadata/nl", "abl-metadata/120",
		"abl-btb/12288/nl", "abl-btb/12288/boomerang+jb", "abl-btb/12288/ignite",
	} {
		cached, ok := counter.cached[name]
		if !ok {
			t.Errorf("no CellDone for %s", name)
		} else if !cached {
			t.Errorf("%s ran its own simulation, want it served by the memo", name)
		}
	}
	for _, name := range []string{"abl-btb/6144/ignite", "abl-throttle/64", "abl-metadata/8"} {
		if counter.cached[name] {
			t.Errorf("%s reports Cached, but no other cell runs its simulation", name)
		}
	}
	if cells, hits := cc.Stats(); cells != 19 || hits != 25 {
		t.Errorf("Stats() = (%d cells, %d hits), want (19, 25) as without the memo", cells, hits)
	}
}

// TestSimMemoPanicIsAnError pins that a panicking simulation leaves an error
// in its memo entry, never a nil cell without one: every later request that
// shares the entry, through any cell table, gets the same PanicError.
func TestSimMemoPanicIsAnError(t *testing.T) {
	cc := NewCellCache()
	spec := smallSpec(t)
	// 1000 KiB over 20 ways is not a power-of-two set count: engine.New
	// panics building the L2.
	rc := runConfig{Name: "bad-l2", Kind: sim.KindNL, Mode: lukewarm.Interleaved, Tweak: sim.Tweaks{L2KiB: 1000}}
	for i, table := range []*CellCache{cc, cc.side(), cc.side()} {
		c, _, err := table.cell(spec, rc, cellEnv{})
		var pe *faults.PanicError
		if c != nil || !errors.As(err, &pe) {
			t.Fatalf("request %d: cell = (%v, %v), want (nil, *faults.PanicError)", i, c, err)
		}
	}
	if _, shared, err := cc.simulate(spec, rc, cellEnv{}); !shared || err == nil {
		t.Errorf("simulate = (shared %v, %v), want the memoized panic", shared, err)
	}
}
