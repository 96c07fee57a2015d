package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/workload"
)

// parseSeeds reads a seed list such as "0-20,1009".
func parseSeeds(spec string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", spec, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("seed list %q: bad range %q", spec, part)
			}
		}
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
	}
	return out, nil
}

// recordDigests recomputes, in-process and without timing, the outputs each
// workload produces for each seed, and for every sweep-dist pick, and
// writes their digests to path. The serve-mix schedule depends on its
// length, so its digests are recorded for the given number of seconds.
func recordDigests(seedSpec string, seconds int, path string) error {
	seeds, err := parseSeeds(seedSpec)
	if err != nil {
		return err
	}
	d, err := loadDigests()
	if err != nil {
		return err
	}
	put := func(wl, key, digest string) {
		if d[wl] == nil {
			d[wl] = map[string]string{}
		}
		d[wl][key] = digest
	}
	// sweep-warm's inputs do not depend on the seed: compute them once.
	w := &runner{workload: "sweep-warm", check: &checker{}, layer: map[string]metric{}}
	warm := w.runReference(experiments.PaperIDs(), allFunctions(budgetWarm))
	for _, seed := range seeds {
		t0 := time.Now()
		put("sweep-warm", digestKey("sweep-warm", seed, 0), warm.docs.digest())
		w.workload = "sweep-all"
		st := w.runReference(experiments.IDs(), pickFunctions(seed, budgetSweep, perLang))
		put(w.workload, digestKey(w.workload, seed, 0), st.docs.digest())
		if w.e.failed > 0 {
			return fmt.Errorf("seed %d: %d experiments failed", seed, w.e.failed)
		}
		pop, names, err := popSpecs(seed)
		if err != nil {
			return err
		}
		sched := makeServeSchedule(seed, names, time.Duration(seconds)*time.Second)
		cc := experiments.NewCellCache()
		results := map[string][]byte{}
		for _, c := range sched.Cells {
			cs, err := cellSpec(c, pop)
			if err != nil {
				return err
			}
			if results[c.Function+"|"+c.Config], err = servedResult(cc, cs, false); err != nil {
				return err
			}
		}
		put("serve-mix", digestKey("serve-mix", seed, seconds), resultDigest(results))
		fmt.Fprintf(os.Stderr, "perfbench: recorded seed %d in %.1fs\n", seed, time.Since(t0).Seconds())
	}
	// sweep-dist draws a new pick per sweep, so its digests are keyed by
	// pick, and every pick is recorded.
	w.workload = "sweep-dist"
	d[w.workload] = map[string]string{}
	for _, specs := range allPicks(budgetSweep) {
		st := w.runReference(experiments.PaperIDs(), specs)
		put(w.workload, picksKey(specs), st.docs.digest())
	}
	if w.e.failed > 0 {
		return fmt.Errorf("sweep-dist: %d experiments failed", w.e.failed)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runReference runs a matrix in-process with a fresh cache, untimed, and
// counts its failures toward the runner's.
func (w *runner) runReference(ids []experiments.ID, specs []workload.Spec) *sweepStats {
	ref := w.runSweep(ids, experiments.Options{Workloads: specs, Cache: experiments.NewCellCache()},
		&cellObserver{parent: -1}, -1)
	w.e.attempted += ref.attempted
	w.e.failed += ref.failed
	return ref
}
