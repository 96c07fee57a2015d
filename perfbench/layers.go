package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ignite/internal/cfg"
	"ignite/internal/experiments"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// snapshotCounts are the cell-snapshot counters the layer walk sums, by
// reported name and snapshot metric name (summed over label sets).
var snapshotCounts = []struct{ name, metric string }{
	{"engine.sim_instrs", "result.instrs"},
	{"cache.accesses", "cache.accesses"},
	{"hier.data_accesses", "hier.data_accesses"},
	{"btb.lookups", "btb.lookups"},
	{"cbp.predictions", "cbp.predictions"},
	{"itlb.lookups", "itlb.lookups"},
	{"ignite.records", "ignite.records"},
	{"ignite.restored", "ignite.restored"},
}

// kindName is a sim.Kind as a metric-name suffix ("+" written as "-").
func kindName(k sim.Kind) string { return strings.ReplaceAll(string(k), "+", "-") }

// walkCell is one (function, kind, mode) cell of a layer walk.
type walkCell struct {
	spec workload.Spec
	kind sim.Kind
	mode lukewarm.Mode
}

// walkCells lists every configuration kind under interleaved execution plus
// the back-to-back baseline, for each function.
func walkCells(specs []workload.Spec) []walkCell {
	var cells []walkCell
	for _, s := range specs {
		for _, k := range sim.Kinds() {
			cells = append(cells, walkCell{s, k, lukewarm.Interleaved})
		}
		cells = append(cells, walkCell{s, sim.KindNL, lukewarm.BackToBack})
	}
	return cells
}

// layerWalk times, for each cell, the calls a cell makes on its way through
// the layers, as child spans of one cell span: program generation, a trace
// walk, engine set-up, the lukewarm protocol, the metric snapshot, payload
// encoding, a store write and read, and payload decoding. Invariant checks
// are on.
func (w *runner) layerWalk(specs []workload.Spec) error {
	dir, err := os.MkdirTemp(w.scratch, "walk-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var build, newSim, put, get, enc, dec, recKiB Samples
	var walkNs, walkInstr, runNs, runInstr float64
	kindNs, kindInstr := map[sim.Kind]float64{}, map[sim.Kind]float64{}
	counts := map[string]float64{}
	walk := w.rec.begin("layer-walk", "", -1)
	for _, c := range walkCells(specs) {
		id := fmt.Sprintf("%s/%s/%s", c.spec.Name, c.kind, c.mode)
		sp := w.rec.begin("cell", id, walk)
		var prog *cfg.Program
		var err error
		build = append(build, ms(w.rec.timed("workload.Build", id, sp, func() { prog, _, err = c.spec.Build() })))
		if err != nil {
			return fmt.Errorf("%s: build: %w", id, err)
		}
		var wr cfg.WalkResult
		d := w.rec.timed("cfg.Walk", id, sp, func() {
			wr, err = prog.Walk(0, cfg.WalkOptions{Seed: 1, MaxInstr: c.spec.MaxInstr()}, func(cfg.Step) bool { return true })
		})
		if err != nil {
			return fmt.Errorf("%s: walk: %w", id, err)
		}
		walkNs += float64(d.Nanoseconds())
		walkInstr += float64(wr.Instrs)
		var setup *sim.Setup
		newSim = append(newSim, ms(w.rec.timed("sim.NewWithProgram", id, sp, func() {
			setup, err = sim.NewWithProgram(c.spec, prog, c.kind, sim.WithChecks())
		})))
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", id, err)
		}
		var res *lukewarm.Result
		d = w.rec.timed("sim.Setup.Run", id, sp, func() { res, err = setup.Run(c.mode) })
		if err != nil {
			return fmt.Errorf("%s: run: %w", id, err)
		}
		runNs += float64(d.Nanoseconds())
		runInstr += float64(res.Instrs())
		if c.mode == lukewarm.Interleaved {
			kindNs[c.kind] += float64(d.Nanoseconds())
			kindInstr[c.kind] += float64(res.Instrs())
		}
		var vals map[string]float64
		w.rec.timed("snapshot", id, sp, func() {
			reg := obs.NewRegistry()
			setup.RegisterMetrics(reg)
			res.RegisterMetrics(reg, nil)
			vals = reg.Snapshot().Values()
		})
		for key, v := range vals {
			name, _, _ := strings.Cut(key, "{")
			for _, sc := range snapshotCounts {
				if sc.metric == name {
					counts[sc.name] += v
				}
			}
		}
		var data []byte
		enc = append(enc, 1e3*ms(w.rec.timed("store.encode", id, sp, func() {
			data, err = json.Marshal(experiments.CellPayload{Res: res, Metrics: vals})
		})))
		if err != nil {
			return fmt.Errorf("%s: encode: %w", id, err)
		}
		recKiB = append(recKiB, float64(len(data))/1024)
		key := experiments.CellSpec{Workload: c.spec, Config: c.kind, Mode: c.mode}.Key()
		put = append(put, 1e3*ms(w.rec.timed("store.Put", id, sp, func() { err = st.Put(key, data) })))
		if err != nil {
			return fmt.Errorf("%s: put: %w", id, err)
		}
		var got []byte
		get = append(get, 1e3*ms(w.rec.timed("store.Get", id, sp, func() { got, err = st.Get(key) })))
		if err != nil {
			return fmt.Errorf("%s: get: %w", id, err)
		}
		var p experiments.CellPayload
		dec = append(dec, 1e3*ms(w.rec.timed("store.decode", id, sp, func() { err = json.Unmarshal(got, &p) })))
		if err != nil {
			return fmt.Errorf("%s: decode: %w", id, err)
		}
		w.rec.end(sp)
	}
	w.rec.end(walk)
	w.set("workload.build_ms", "ms", build.Median(), build.N())
	w.set("cfg.walk_ns_per_instr", "ns", share(walkNs, walkInstr), len(build))
	w.set("sim.new_ms", "ms", newSim.Median(), newSim.N())
	w.set("engine.ns_per_instr", "ns", share(runNs, runInstr), len(build))
	for _, k := range sim.Kinds() {
		w.set("engine.ns_per_instr."+kindName(k), "ns", share(kindNs[k], kindInstr[k]), len(specs))
	}
	for _, sc := range snapshotCounts {
		w.set(sc.name, "count", counts[sc.name], len(build))
	}
	w.set("store.put_us", "us", put.Median(), put.N())
	w.set("store.get_us", "us", get.Median(), get.N())
	w.set("store.encode_us", "us", enc.Median(), enc.N())
	w.set("store.decode_us", "us", dec.Median(), dec.N())
	w.set("store.record_kib", "KiB", recKiB.Median(), recKiB.N())
	return os.RemoveAll(dir)
}
