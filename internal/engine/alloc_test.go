package engine

import "testing"

// TestInvocationAllocs pins the steady-state allocation count of the serial
// invocation hot path. After the first invocation has grown the reusable
// buffers (trace, evals, pending table, walk scratch), each further
// RunInvocation allocates exactly one object: the returned InvocationStats.
// The ceiling of 2 leaves room for one incidental allocation without letting
// a per-step or per-fetch allocation (which would show up as thousands)
// anywhere near the gate.
func TestInvocationAllocs(t *testing.T) {
	e := New(buildBenchProgram(t), DefaultConfig())
	got := steadyAllocs(t, e, 60_000)
	if got > 2 {
		t.Errorf("steady-state RunInvocation allocates %.1f objects/invocation, want <= 2", got)
	}
}

// TestThrashAllocs pins the lukewarm thrash at zero allocations: the cache
// flush walks a list it reuses, the bimodal reseeds a PCG it keeps, and
// ThrashSelective snapshots only the structures it keeps (here none).
func TestThrashAllocs(t *testing.T) {
	e := New(buildBenchProgram(t), DefaultConfig())
	if _, err := e.RunInvocation(InvocationOptions{Seed: 1, MaxInstr: 60_000}); err != nil {
		t.Fatal(err)
	}
	seed := uint64(2)
	for _, tc := range []struct {
		name   string
		thrash func()
	}{
		{"Thrash", func() { e.Thrash(seed) }},
		{"ThrashSelective", func() { e.ThrashSelective(seed, false, false, false) }},
	} {
		got := testing.AllocsPerRun(10, func() {
			tc.thrash()
			seed++
		})
		if got != 0 {
			t.Errorf("steady-state %s allocates %.1f objects, want 0", tc.name, got)
		}
	}
}

// TestBatchedInvocationAllocs pins the batched entry point: a whole train of
// invocations shares one InvocationStats backing array plus one pointer
// slice, so the per-train total must stay constant (independent of train
// length) rather than growing one allocation per invocation.
func TestBatchedInvocationAllocs(t *testing.T) {
	const (
		maxInstr = 60_000
		train    = 8
	)
	e := New(buildBenchProgram(t), DefaultConfig())
	if _, err := e.RunInvocation(InvocationOptions{Seed: 1, MaxInstr: maxInstr}); err != nil {
		t.Fatal(err)
	}
	opts := make([]InvocationOptions, train)
	seed := uint64(2)
	got := testing.AllocsPerRun(5, func() {
		_, err := e.RunInvocations(opts, func(i int) error {
			opts[i] = InvocationOptions{Seed: seed, MaxInstr: maxInstr}
			seed++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	// Two slice allocations for the whole train, plus slack for one
	// incidental: far below the train+1 a serial loop would cost.
	if got > 4 {
		t.Errorf("batched %d-invocation train allocates %.1f objects, want <= 4", train, got)
	}
}

// TestScratchHandoff proves the detach/attach cycle preserves results: an
// engine running on buffers recycled from another engine produces bit-
// identical stats to one growing its own, and a detached engine's next
// invocation still works (buffers regrow).
func TestScratchHandoff(t *testing.T) {
	prog := buildBenchProgram(t)
	run := func(e *Engine, seed uint64) InvocationStats {
		t.Helper()
		st, err := e.RunInvocation(InvocationOptions{Seed: seed, MaxInstr: 60_000})
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}

	donor := New(prog, DefaultConfig())
	run(donor, 1)
	scratch := donor.DetachScratch()

	// The donor regrows buffers and keeps producing the same results.
	fresh := New(prog, DefaultConfig())
	run(fresh, 1)
	if a, b := run(donor, 2), run(fresh, 2); a != b {
		t.Errorf("detached engine diverged: %+v vs %+v", a, b)
	}

	// A recipient on recycled buffers matches an engine growing its own.
	recipient := New(prog, DefaultConfig())
	recipient.AttachScratch(scratch)
	control := New(prog, DefaultConfig())
	if a, b := run(recipient, 3), run(control, 3); a != b {
		t.Errorf("recycled-scratch engine diverged: %+v vs %+v", a, b)
	}
}
