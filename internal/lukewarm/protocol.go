// Package lukewarm orchestrates the paper's experimental protocol
// (Section 5.3): a function is invoked repeatedly on one core; between
// invocations the simulator either preserves all microarchitectural state
// (back-to-back, the best case) or thrashes it (interleaved/lukewarm,
// flushing caches, BTB, I-TLB and TAGE and randomizing the bimodal),
// optionally preserving selected structures for the warm-state sensitivity
// studies. Record/replay mechanisms (Jukebox, Confluence, Ignite) record
// during a designated invocation and replay on every measured one.
package lukewarm

import (
	"fmt"

	"ignite/internal/cfg"
	"ignite/internal/engine"
	"ignite/internal/memsys"
	"ignite/internal/stats"
)

// Mode selects the inter-invocation regime.
type Mode uint8

const (
	// BackToBack preserves all state between invocations (the paper's
	// best-case baseline).
	BackToBack Mode = iota
	// Interleaved thrashes on-chip state between invocations, modeling
	// thousands of interleaving function executions.
	Interleaved
)

func (m Mode) String() string {
	if m == BackToBack {
		return "back-to-back"
	}
	return "interleaved"
}

// ParseMode resolves a mode's name: "interleaved" (also the empty string)
// or "back-to-back" (also "b2b").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "interleaved":
		return Interleaved, nil
	case "back-to-back", "b2b":
		return BackToBack, nil
	}
	return 0, fmt.Errorf("unknown mode %q (valid: interleaved, back-to-back)", s)
}

// Preserve selects structures exempted from the thrash (Figures 4 and 5).
type Preserve struct {
	BTB  bool
	BIM  bool
	TAGE bool
}

// TraceProvider supplies the committed trace for an invocation seed,
// exactly as Program.Walk would generate it (the walk depends only on the
// program and seed, not on the front-end configuration), so protocol runs
// that share a workload across configurations can generate each trace once.
type TraceProvider func(seed, maxInstr uint64) ([]cfg.Step, cfg.WalkResult, error)

// Mechanism is a record/replay restoration mechanism (Ignite, Jukebox,
// Confluence) driven by the protocol.
type Mechanism interface {
	StartRecord()
	StopRecord()
	ArmReplay()
}

// Options configures a protocol run.
type Options struct {
	// MaxInstr is the per-invocation instruction budget.
	MaxInstr uint64
	// Warmups is the number of warm-up invocations (default 2).
	Warmups int
	// Measures is the number of measured invocations (default 3).
	Measures int
	// Mode selects back-to-back or interleaved execution.
	Mode Mode
	// Keep preserves selected structures across the thrash.
	Keep Preserve
	// Mechanisms record during the record invocation and replay on every
	// measured invocation.
	Mechanisms []Mechanism
	// SeedBase differentiates invocations; each invocation uses
	// SeedBase+i so traces share structure but differ in detail. A zero
	// SeedBase means DefaultSeedBase unless SeedBaseSet says otherwise:
	// seed 0 is a legitimate request, so callers that computed their base
	// (even to zero) set the sentinel rather than relying on non-zeroness.
	SeedBase uint64
	// SeedBaseSet marks SeedBase as explicitly chosen, making SeedBase: 0
	// expressible instead of being clobbered to DefaultSeedBase.
	SeedBaseSet bool
	// Traces, when non-nil, supplies pre-generated committed traces;
	// results are bit-identical with or without it.
	Traces TraceProvider
}

// DefaultSeedBase is the protocol's seed base when the caller leaves
// Options.SeedBase unset.
const DefaultSeedBase uint64 = 0x1ce

func (o Options) withDefaults() Options {
	if o.Warmups <= 0 {
		o.Warmups = 2
	}
	if o.Measures <= 0 {
		o.Measures = 3
	}
	if o.SeedBase == 0 && !o.SeedBaseSet {
		o.SeedBase = DefaultSeedBase
	}
	return o
}

// Result aggregates the measured invocations.
type Result struct {
	PerInvocation []*engine.InvocationStats
	Traffic       []memsys.Report
}

// Instrs returns the total measured instruction count.
func (r *Result) Instrs() uint64 {
	var n uint64
	for _, s := range r.PerInvocation {
		n += s.Instrs
	}
	return n
}

// Cycles returns the total measured cycles.
func (r *Result) Cycles() float64 {
	var c float64
	for _, s := range r.PerInvocation {
		c += s.Cycles
	}
	return c
}

// CPI returns the aggregate cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instrs() == 0 {
		return 0
	}
	return r.Cycles() / float64(r.Instrs())
}

// CPIStack returns the aggregate per-instruction cycle stack.
func (r *Result) CPIStack() stats.CPIStack {
	var total stats.CPIStack
	for _, s := range r.PerInvocation {
		total = total.Add(s.Stack)
	}
	return total.PerInstr(r.Instrs())
}

func (r *Result) sum(f func(*engine.InvocationStats) uint64) uint64 {
	var n uint64
	for _, s := range r.PerInvocation {
		n += f(s)
	}
	return n
}

// L1IMPKI returns the aggregate L1-I miss rate.
func (r *Result) L1IMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.L1IMisses }), r.Instrs())
}

// BTBMPKI returns the aggregate BTB miss rate.
func (r *Result) BTBMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.BTBMisses + s.TargetMispredicts }), r.Instrs())
}

// CBPMPKI returns the aggregate conditional misprediction rate.
func (r *Result) CBPMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.CondMispredicts }), r.Instrs())
}

// InitialCBPMPKI returns the misprediction rate of first-execution branches.
func (r *Result) InitialCBPMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.CondMispredInitial }), r.Instrs())
}

// InducedMPKI returns the rate of mispredictions induced by incorrect
// Ignite BIM initializations.
func (r *Result) InducedMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.InducedMispredicts }), r.Instrs())
}

// BPUMPKI returns BTB plus CBP MPKI, the paper's combined BPU metric.
func (r *Result) BPUMPKI() float64 { return r.BTBMPKI() + r.CBPMPKI() }

// OffChipMPKI returns instruction fetches served by DRAM per kilo-instr.
func (r *Result) OffChipMPKI() float64 {
	return stats.MPKI(r.sum(func(s *engine.InvocationStats) uint64 { return s.OffChipInstrMisses }), r.Instrs())
}

// MeanTraffic returns the mean per-invocation bandwidth report.
func (r *Result) MeanTraffic() memsys.Report {
	if len(r.Traffic) == 0 {
		return memsys.Report{}
	}
	var sum memsys.Report
	for _, t := range r.Traffic {
		sum.UsefulInstrBytes += t.UsefulInstrBytes
		sum.UselessInstrBytes += t.UselessInstrBytes
		sum.RecordMetaBytes += t.RecordMetaBytes
		sum.ReplayMetaBytes += t.ReplayMetaBytes
	}
	// Round half-up: plain integer division would silently drop up to
	// n-1 bytes per field, skewing every bandwidth figure low.
	n := uint64(len(r.Traffic))
	mean := func(v uint64) uint64 { return (v + n/2) / n }
	return memsys.Report{
		UsefulInstrBytes:  mean(sum.UsefulInstrBytes),
		UselessInstrBytes: mean(sum.UselessInstrBytes),
		RecordMetaBytes:   mean(sum.RecordMetaBytes),
		ReplayMetaBytes:   mean(sum.ReplayMetaBytes),
	}
}

// Run executes the protocol on the engine: warm-ups, a record invocation
// (when mechanisms are present), and the measured invocations. The whole
// train goes through the engine's batched RunInvocations entry point — one
// result allocation for the train — with the protocol's thrashes, mechanism
// arming and traffic-window management performed in the between hook, in
// exactly the order the serial per-invocation protocol used.
func Run(eng *engine.Engine, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	seed := opt.SeedBase

	thrash := func(i uint64) {
		if opt.Mode != Interleaved {
			return
		}
		eng.ThrashSelective(opt.SeedBase^(0xbad<<16)^i,
			opt.Keep.BTB, opt.Keep.BIM, opt.Keep.TAGE)
	}

	rec := 0
	if len(opt.Mechanisms) > 0 {
		rec = 1
	}
	firstMeasured := opt.Warmups + rec
	total := firstMeasured + opt.Measures

	res := &Result{}
	opts := make([]engine.InvocationOptions, total)
	between := func(i int) error {
		switch {
		case i < opt.Warmups:
			// Warm-up: trains runtimes / predictors; in interleaved mode
			// each warm-up still sees thrashed state, as on a real server.
			thrash(uint64(i))
		case i == opt.Warmups && rec == 1:
			// Record invocation.
			thrash(100)
			for _, m := range opt.Mechanisms {
				m.StartRecord()
			}
		default:
			j := i - firstMeasured // measured index
			if rec == 1 && i == firstMeasured {
				// The record invocation just finished.
				for _, m := range opt.Mechanisms {
					m.StopRecord()
					m.ArmReplay()
				}
			}
			if j > 0 {
				// Close the previous measured invocation's traffic window
				// before the thrash+reset opens the next one.
				res.Traffic = append(res.Traffic, eng.Traffic().Report())
			}
			thrash(uint64(200 + j))
			eng.Traffic().Reset()
		}
		io := engine.InvocationOptions{Seed: seed, MaxInstr: opt.MaxInstr}
		if opt.Traces != nil {
			tr, wres, err := opt.Traces(seed, opt.MaxInstr)
			if err != nil {
				return fmt.Errorf("lukewarm: trace for seed %d: %w", seed, err)
			}
			io.Trace, io.TraceResult = tr, wres
		}
		opts[i] = io
		seed++
		return nil
	}

	sts, err := eng.RunInvocations(opts, between)
	if err != nil {
		return nil, fmt.Errorf("lukewarm: %w", err)
	}
	res.PerInvocation = sts[firstMeasured:]
	res.Traffic = append(res.Traffic, eng.Traffic().Report())
	eng.BTB().SweepRestoredUnused()
	return res, nil
}
