package lukewarm

import (
	"testing"

	"ignite/internal/engine"
	"ignite/internal/memsys"
	"ignite/internal/workload"
)

func testEngine(t *testing.T) (*engine.Engine, Options) {
	t.Helper()
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.FDPEnabled = true // warm-BPU benefits show through the decoupled front end
	eng := engine.New(prog, cfg)
	return eng, Options{MaxInstr: spec.MaxInstr() / 2, Warmups: 1, Measures: 2}
}

func TestBackToBackVsInterleaved(t *testing.T) {
	engA, opt := testEngine(t)
	opt.Mode = BackToBack
	b2b, err := Run(engA, opt)
	if err != nil {
		t.Fatal(err)
	}
	engB, opt2 := testEngine(t)
	opt2.Mode = Interleaved
	il, err := Run(engB, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if il.CPI() <= b2b.CPI() {
		t.Errorf("interleaved CPI %.3f <= back-to-back %.3f", il.CPI(), b2b.CPI())
	}
	// Front-end stalls must dominate the degradation (the paper's core
	// observation).
	feDelta := il.CPIStack().FrontEnd() - b2b.CPIStack().FrontEnd()
	total := il.CPI() - b2b.CPI()
	if feDelta/total < 0.4 {
		t.Errorf("front-end share of degradation = %.2f, want the largest component", feDelta/total)
	}
}

func TestPreserveReducesDamage(t *testing.T) {
	engA, opt := testEngine(t)
	opt.Mode = Interleaved
	cold, err := Run(engA, opt)
	if err != nil {
		t.Fatal(err)
	}
	engB, opt2 := testEngine(t)
	opt2.Mode = Interleaved
	opt2.Keep = Preserve{BTB: true, BIM: true, TAGE: true}
	warm, err := Run(engB, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.BTBMPKI() >= cold.BTBMPKI() {
		t.Errorf("warm BTB MPKI %.2f >= cold %.2f", warm.BTBMPKI(), cold.BTBMPKI())
	}
	if warm.CBPMPKI() >= cold.CBPMPKI() {
		t.Errorf("warm CBP MPKI %.2f >= cold %.2f", warm.CBPMPKI(), cold.CBPMPKI())
	}
	if warm.CPIStack().BadSpec >= cold.CPIStack().BadSpec {
		t.Errorf("warm bad-speculation %.3f >= cold %.3f", warm.CPIStack().BadSpec, cold.CPIStack().BadSpec)
	}
	// Total CPI may shift slightly either way on a single small function
	// (wrong-path fetches have a prefetching side effect the warm BPU
	// forgoes); it must not get significantly worse.
	if warm.CPI() > cold.CPI()*1.08 {
		t.Errorf("warm CPI %.3f much worse than cold %.3f", warm.CPI(), cold.CPI())
	}
}

func TestResultAggregation(t *testing.T) {
	eng, opt := testEngine(t)
	opt.Mode = Interleaved
	res, err := Run(eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerInvocation) != 2 || len(res.Traffic) != 2 {
		t.Fatalf("got %d invocations, %d traffic reports", len(res.PerInvocation), len(res.Traffic))
	}
	if res.Instrs() == 0 || res.Cycles() == 0 {
		t.Fatal("empty aggregate")
	}
	st := res.CPIStack()
	if st.Total() == 0 || res.CPI() == 0 {
		t.Fatal("zero CPI")
	}
	// Stack total must equal CPI.
	if diff := st.Total() - res.CPI(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("stack total %.6f != CPI %.6f", st.Total(), res.CPI())
	}
	if res.InitialCBPMPKI() > res.CBPMPKI() {
		t.Error("initial MPKI exceeds total CBP MPKI")
	}
	if res.BPUMPKI() != res.BTBMPKI()+res.CBPMPKI() {
		t.Error("BPU MPKI != BTB + CBP")
	}
	tr := res.MeanTraffic()
	if tr.InstrBytes() == 0 {
		t.Error("no instruction traffic recorded")
	}
}

type fakeMech struct {
	rec, stop, armed int
}

func (m *fakeMech) StartRecord() { m.rec++ }
func (m *fakeMech) StopRecord()  { m.stop++ }
func (m *fakeMech) ArmReplay()   { m.armed++ }

func TestMechanismLifecycle(t *testing.T) {
	eng, opt := testEngine(t)
	opt.Mode = Interleaved
	m := &fakeMech{}
	opt.Mechanisms = []Mechanism{m}
	if _, err := Run(eng, opt); err != nil {
		t.Fatal(err)
	}
	if m.rec != 1 || m.stop != 1 || m.armed != 1 {
		t.Errorf("mechanism lifecycle: %+v", m)
	}
}

func TestModeString(t *testing.T) {
	if BackToBack.String() != "back-to-back" || Interleaved.String() != "interleaved" {
		t.Error("Mode.String broken")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Mode
		ok   bool
	}{
		{"", Interleaved, true},
		{"interleaved", Interleaved, true},
		{"back-to-back", BackToBack, true},
		{"b2b", BackToBack, true},
		{"backtoback", 0, false},
	} {
		got, err := ParseMode(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestEmptyResultHelpers(t *testing.T) {
	r := &Result{}
	if r.CPI() != 0 || r.MeanTraffic().Total() != 0 {
		t.Error("empty result helpers should return zeros")
	}
}

func TestMeanTrafficRoundsHalfUp(t *testing.T) {
	// Regression: a byte count not divisible by the invocation count used
	// to truncate, dropping up to n-1 bytes per field.
	r := &Result{Traffic: []memsys.Report{
		{UsefulInstrBytes: 1, UselessInstrBytes: 10, RecordMetaBytes: 0, ReplayMetaBytes: 2},
		{UsefulInstrBytes: 2, UselessInstrBytes: 10, RecordMetaBytes: 1, ReplayMetaBytes: 2},
		{UsefulInstrBytes: 2, UselessInstrBytes: 10, RecordMetaBytes: 0, ReplayMetaBytes: 3},
	}}
	m := r.MeanTraffic()
	// Sums are 5, 30, 1, 7 over n=3: half-up means 2, 10, 0, 2
	// (truncation would yield 1 for the first field).
	if m.UsefulInstrBytes != 2 {
		t.Errorf("UsefulInstrBytes mean = %d, want 2 (5/3 rounded half-up)", m.UsefulInstrBytes)
	}
	if m.UselessInstrBytes != 10 {
		t.Errorf("UselessInstrBytes mean = %d, want 10", m.UselessInstrBytes)
	}
	if m.RecordMetaBytes != 0 {
		t.Errorf("RecordMetaBytes mean = %d, want 0 (1/3 rounds down)", m.RecordMetaBytes)
	}
	if m.ReplayMetaBytes != 2 {
		t.Errorf("ReplayMetaBytes mean = %d, want 2 (7/3 rounded half-up)", m.ReplayMetaBytes)
	}
}

func TestSeedBaseDefaults(t *testing.T) {
	// Regression: an explicitly chosen SeedBase of zero used to be
	// clobbered to DefaultSeedBase because only non-zeroness was checked.
	if got := (Options{}).withDefaults().SeedBase; got != DefaultSeedBase {
		t.Errorf("unset SeedBase = %#x, want DefaultSeedBase %#x", got, DefaultSeedBase)
	}
	o := Options{SeedBase: 0, SeedBaseSet: true}.withDefaults()
	if o.SeedBase != 0 {
		t.Errorf("explicit SeedBase 0 clobbered to %#x", o.SeedBase)
	}
	if got := (Options{SeedBase: 7}).withDefaults().SeedBase; got != 7 {
		t.Errorf("non-zero SeedBase rewritten to %#x", got)
	}
}

func TestSeedBaseZeroChangesRun(t *testing.T) {
	// End-to-end: SeedBase 0 with the sentinel must actually run seeds
	// 0,1,... — producing a different trace sequence than the default base.
	run := func(opt Options) *Result {
		t.Helper()
		eng, base := testEngine(t)
		base.Mode = Interleaved
		base.Measures = 1
		base.SeedBase, base.SeedBaseSet = opt.SeedBase, opt.SeedBaseSet
		res, err := Run(eng, base)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := run(Options{SeedBase: 0, SeedBaseSet: true})
	def := run(Options{})
	if zero.Cycles() == def.Cycles() && zero.Instrs() == def.Instrs() &&
		zero.CBPMPKI() == def.CBPMPKI() {
		t.Error("explicit SeedBase 0 produced the DefaultSeedBase run (sentinel ignored)")
	}
}
