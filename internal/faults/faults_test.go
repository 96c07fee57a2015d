package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestParseAndFire(t *testing.T) {
	p, err := Parse("transient@fig1/A/nl:trips=2; panic@*/B/*; slow@fig2/C/nl:delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Transient fires exactly trips times, then clears.
	site := Site{"fig1", "A", "nl"}
	for trip := 1; trip <= 2; trip++ {
		err := p.Fire(ctx, site)
		var te *TransientError
		if !errors.As(err, &te) || te.Trip != trip {
			t.Fatalf("trip %d: got %v", trip, err)
		}
		if !IsTransient(err) || !IsTransient(fmt.Errorf("wrap: %w", err)) {
			t.Fatalf("trip %d not classified transient", trip)
		}
	}
	if err := p.Fire(ctx, site); err != nil {
		t.Fatalf("fault did not clear after trips: %v", err)
	}

	// Wildcards match any experiment and config; panics really panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic rule did not fire")
			}
		}()
		_ = p.Fire(ctx, Site{"anything", "B", "ignite"})
	}()

	// Slow faults honor cancellation.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := p.Fire(canceled, Site{"fig2", "C", "nl"}); err == nil {
		t.Error("canceled slow fault returned nil")
	}

	// Non-matching sites are untouched.
	if err := p.Fire(ctx, Site{"fig9", "Z", "nl"}); err != nil {
		t.Errorf("unmatched site fired: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "nonsense", "explode@a/b/c", "panic@a/b", "panic@a/b/c:trips=0",
		"slow@a/b/c:delay=-1s", "transient@a/b/c:rate=2", "panic@a/b/c:wat=1",
		"corrupt@a/b/c",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestFromEnvSpec(t *testing.T) {
	if p, err := FromEnvSpec(""); p != nil || err != nil {
		t.Errorf("empty spec: got %v, %v", p, err)
	}
	p, err := FromEnvSpec("smoke")
	if err != nil || p == nil {
		t.Fatalf("smoke: %v", err)
	}
	if len(p.rules) != 3 {
		t.Errorf("smoke plan has %d rules, want 3", len(p.rules))
	}
	if _, err := FromEnvSpec("bogus@@"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestRateSelectionDeterministic(t *testing.T) {
	// The same seed must select the same sites, a different seed a
	// (generally) different subset, and selection must be order-independent.
	pick := func(seed uint64) map[string]bool {
		p := New(seed)
		if err := p.Add("transient@*/*/*:rate=0.5,trips=1"); err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for i := 0; i < 64; i++ {
			s := Site{"fig1", fmt.Sprintf("w%d", i), "nl"}
			out[s.String()] = p.Fire(context.Background(), s) != nil
		}
		return out
	}
	a, b := pick(7), pick(7)
	hits := 0
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("seed 7 selection not deterministic at %s", k)
		}
		if v {
			hits++
		}
	}
	if hits == 0 || hits == 64 {
		t.Errorf("rate=0.5 selected %d/64 sites; gate looks broken", hits)
	}
	c := pick(8)
	same := 0
	for k, v := range a {
		if c[k] == v {
			same++
		}
	}
	if same == 64 {
		t.Error("seed change did not alter selection")
	}
}

func TestNilPlanIsSafe(t *testing.T) {
	var p *Plan
	if err := p.Fire(context.Background(), Site{}); err != nil {
		t.Error(err)
	}
}

func TestSlowFaultDelay(t *testing.T) {
	p, err := Parse("slow@f/w/c:delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Fire(context.Background(), Site{"f", "w", "c"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("slow fault returned after %v, want >= 10ms", d)
	}
}
