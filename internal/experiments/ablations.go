package experiments

import (
	"context"
	"fmt"
	"strconv"

	"ignite/internal/engine"
	"ignite/internal/faults"
	"ignite/internal/ignite"
	"ignite/internal/lukewarm"
	"ignite/internal/memsys"
	"ignite/internal/sim"
	"ignite/internal/stats"
)

func init() {
	registry = append(registry,
		regEntry{"abl-codec", "Ablation: metadata delta-field widths (paper footnote 6)", AblCodec},
		regEntry{"abl-throttle", "Ablation: replay throttle threshold (Section 4.2)", AblThrottle},
		regEntry{"abl-btb", "Ablation: BTB capacity (Ice-Lake-class 6K vs Sapphire Rapids 12K)", AblBTB},
		regEntry{"abl-metadata", "Ablation: metadata budget per function", AblMetadata},
	)
}

// AblCodec sweeps the compact-record delta widths and reports bits per
// record — the study behind the paper's footnote 6 claim that 7-bit
// branch-PC and 21-bit target deltas compress best.
func AblCodec(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	r := &Result{ID: "abl-codec", Title: Title("abl-codec")}
	t := stats.NewTable(r.Title,
		"ΔPC bits", "Δtarget bits", "compact %", "bits/record", "metadata KiB")

	configs := []struct{ pc, tgt uint }{
		{4, 12}, {7, 14}, {7, 21}, {10, 21}, {14, 28}, {21, 7},
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One representative workload is enough for the codec study (and keeps
	// the sweep cheap); use the first selected workload. Its program comes
	// from the shared memo, so a sweep builds it once.
	spec := opt.Workloads[0]
	cache := opt.Cache
	if cache == nil {
		cache = NewCellCache()
	}
	prog, err := cache.program(spec)
	if err != nil {
		return nil, err
	}
	for _, w := range configs {
		// Ablations run their cells serially; fire injected faults at the
		// same (experiment, workload, config) granularity as the scheduler
		// so chaos plans cover them too.
		if err := opt.Faults.Fire(ctx, faults.Site{
			Experiment: "abl-codec", Workload: spec.Name,
			Config: fmt.Sprintf("%d/%d", w.pc, w.tgt),
		}); err != nil {
			return nil, err
		}
		codec := ignite.CodecConfig{DeltaPCBits: w.pc, DeltaTargetBits: w.tgt, FullAddrBits: 48}
		ec := engine.DefaultConfig()
		eng := engine.New(prog, ec)
		region := memsys.NewRegion(0, 4<<20) // unbounded for the study
		rec := ignite.NewRecorder(codec, region, nil)
		rec.Attach(eng.BTB())
		rec.Start()
		eng.Thrash(1)
		if _, err := eng.RunInvocation(engine.InvocationOptions{Seed: 1, MaxInstr: spec.MaxInstr()}); err != nil {
			return nil, err
		}
		rec.Stop()
		row := fmt.Sprintf("%d/%d", w.pc, w.tgt)
		bitsPerRec := 0.0
		compactPct := 0.0
		if rec.Records() > 0 {
			bitsPerRec = float64(region.Used()*8) / float64(rec.Records())
			compactPct = float64(recCompact(rec)) / float64(rec.Records()) * 100
		}
		t.AddRowf(fmt.Sprintf("%d", w.pc), fmt.Sprintf("%d", w.tgt),
			compactPct, bitsPerRec, float64(region.Used())/1024)
		r.set(row, "bitsPerRecord", bitsPerRec)
		r.set(row, "compactPct", compactPct)
		r.set(row, "metadataKiB", float64(region.Used())/1024)
	}
	r.Table = t
	return r, nil
}

func recCompact(r *ignite.Recorder) int { return r.CompactRecords() }

// ablationMatrix runs an ablation's cells on the scheduler, Options.Parallel
// wide, through a side cache of opt.Cache: the cells reuse the shared program
// and trace memos, but stay out of the shared cell table, its store and
// remote. The shared cache's Stats — which every exported manifest records
// — therefore read the same with or without the ablations in a sweep.
func ablationMatrix(ctx context.Context, id ID, opt Options, configs []runConfig) (*Result, *matrix, []string, error) {
	opt.Cache = opt.Cache.side()
	m, err := runMatrix(ctx, id, opt, configs)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &Result{ID: id, Title: Title(id), Failures: cellFailures(m.outcomes)}
	// Aggregate in the given workload order, not plot order, so the float
	// sums behind each row keep the order they always had.
	var names []string
	for _, s := range opt.withDefaults().Workloads {
		if _, ok := m.cells[s.Name]; ok && !m.unhealthy[s.Name] {
			names = append(names, s.Name)
		}
	}
	return r, m, names, nil
}

// AblThrottle sweeps the replay throttle threshold: too low starves the
// restore, too high lets replay thrash the BTB ahead of use.
func AblThrottle(ctx context.Context, opt Options) (*Result, error) {
	thresholds := []int{64, 256, 1024, 4096, 1 << 20}
	configs := []runConfig{{Name: "nl", Kind: sim.KindNL, Mode: lukewarm.Interleaved}}
	for _, thr := range thresholds {
		configs = append(configs, runConfig{Name: strconv.Itoa(thr), Kind: sim.KindIgnite,
			Tweak: sim.Tweaks{ThrottleThreshold: thr}, Mode: lukewarm.Interleaved})
	}
	r, m, names, err := ablationMatrix(ctx, "abl-throttle", opt, configs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(r.Title, "threshold", "speedup over NL", "BTB MPKI", "L1I MPKI")
	for _, thr := range thresholds {
		var speedups, btbs, l1s []float64
		for _, name := range names {
			res := m.cells[name][strconv.Itoa(thr)].Res
			speedups = append(speedups, m.cells[name]["nl"].Res.CPI()/res.CPI())
			btbs = append(btbs, res.BTBMPKI())
			l1s = append(l1s, res.L1IMPKI())
		}
		label := strconv.Itoa(thr)
		if thr == 1<<20 {
			label = "unthrottled"
		}
		t.AddRowf(label, stats.GeoMean(speedups), stats.Mean(btbs), stats.Mean(l1s))
		r.set(label, "speedup", stats.GeoMean(speedups))
		r.set(label, "btbmpki", stats.Mean(btbs))
	}
	r.Table = t
	return r, nil
}

// AblBTB compares Ice Lake's 5K-entry BTB against the modeled 12K-entry
// Sapphire Rapids BTB (the paper states the overall trends are unaffected).
// Every capacity has its own NL baseline cell.
func AblBTB(ctx context.Context, opt Options) (*Result, error) {
	sizes := []int{6144, 12288, 24576} // 6-way: sets must be a power of two
	kinds := []sim.Kind{sim.KindBoomerangJB, sim.KindIgnite}
	var configs []runConfig
	for _, entries := range sizes {
		for _, kind := range append([]sim.Kind{sim.KindNL}, kinds...) {
			configs = append(configs, runConfig{Name: fmt.Sprintf("%d/%s", entries, kind), Kind: kind,
				Tweak: sim.Tweaks{BTBEntries: entries}, Mode: lukewarm.Interleaved})
		}
	}
	r, m, names, err := ablationMatrix(ctx, "abl-btb", opt, configs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(r.Title, "BTB entries", "config", "speedup over NL", "BTB MPKI")
	for _, entries := range sizes {
		for _, kind := range kinds {
			row := fmt.Sprintf("%d/%s", entries, kind)
			var speedups, btbs []float64
			for _, name := range names {
				res := m.cells[name][row].Res
				base := m.cells[name][fmt.Sprintf("%d/%s", entries, sim.KindNL)].Res
				speedups = append(speedups, base.CPI()/res.CPI())
				btbs = append(btbs, res.BTBMPKI())
			}
			t.AddRowf(entries, string(kind), stats.GeoMean(speedups), stats.Mean(btbs))
			r.set(row, "speedup", stats.GeoMean(speedups))
			r.set(row, "btbmpki", stats.Mean(btbs))
		}
	}
	r.Table = t
	return r, nil
}

// AblMetadata sweeps Ignite's per-function metadata budget (the paper caps
// it at 120 KiB).
func AblMetadata(ctx context.Context, opt Options) (*Result, error) {
	budgets := []int{8, 30, 60, 120, 240} // KiB
	configs := []runConfig{{Name: "nl", Kind: sim.KindNL, Mode: lukewarm.Interleaved}}
	for _, kib := range budgets {
		configs = append(configs, runConfig{Name: strconv.Itoa(kib), Kind: sim.KindIgnite,
			Tweak: sim.Tweaks{MetadataBytes: kib << 10}, Mode: lukewarm.Interleaved})
	}
	r, m, names, err := ablationMatrix(ctx, "abl-metadata", opt, configs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(r.Title, "budget KiB", "speedup over NL", "BTB MPKI", "records dropped")
	for _, kib := range budgets {
		row := strconv.Itoa(kib)
		var speedups, btbs, dropped []float64
		for _, name := range names {
			c := m.cells[name][row]
			speedups = append(speedups, m.cells[name]["nl"].Res.CPI()/c.Res.CPI())
			btbs = append(btbs, c.Res.BTBMPKI())
			dropped = append(dropped, c.Metrics[mIgniteDropped])
		}
		t.AddRowf(kib, stats.GeoMean(speedups), stats.Mean(btbs), stats.Mean(dropped))
		r.set(row, "speedup", stats.GeoMean(speedups))
		r.set(row, "dropped", stats.Mean(dropped))
	}
	r.Table = t
	return r, nil
}
