package budget_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/fleet/budget"
	"ignite/internal/fleet/population"
	"ignite/internal/ignite"
	"ignite/internal/loadgen"
)

func sampleTenants(t *testing.T, seed uint64, n int) []budget.Tenant {
	t.Helper()
	fns, err := population.Sample(population.Params{Seed: seed, N: n})
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return tenants
}

func runParams(seed uint64, b uint64, p budget.Policy) budget.Params {
	return budget.Params{
		Seed:        seed,
		Duration:    30 * time.Second,
		Process:     loadgen.Poisson,
		BudgetBytes: b,
		Policy:      p,
	}
}

// TestMarketDeterminism pins the market's reproducibility contract: the
// same tenants, seed and policy produce byte-identical outcomes.
func TestMarketDeterminism(t *testing.T) {
	tenants := sampleTenants(t, 11, 150)
	const b = 4 << 20
	ref, err := budget.Run(tenants, runParams(5, b, budget.NewLRU()))
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	for i := 0; i < 3; i++ {
		got, err := budget.Run(tenants, runParams(5, b, budget.NewLRU()))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, gotJSON, refJSON)
		}
	}
	if ref.Invocations == 0 || ref.Warm == 0 || ref.Cold == 0 {
		t.Fatalf("degenerate outcome: %+v", ref)
	}
}

// TestPolicyOrdering checks the lower/upper bounds sandwich every real
// policy: all-cold "none" is the worst mean CPI, the no-budget oracle the
// best, and every budgeted policy lands between them.
func TestPolicyOrdering(t *testing.T) {
	tenants := sampleTenants(t, 21, 200)
	const b = 6 << 20

	outcomes := map[string]budget.Outcome{}
	for _, name := range budget.PolicyNames() {
		pol, err := budget.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := budget.Run(tenants, runParams(9, b, pol))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outcomes[name] = o
	}

	none, oracle := outcomes["none"], outcomes["oracle"]
	if none.Warm != 0 {
		t.Fatalf("none admitted %d warm invocations", none.Warm)
	}
	if oracle.MeanCPI >= none.MeanCPI {
		t.Fatalf("oracle mean CPI %.4f not better than all-cold %.4f", oracle.MeanCPI, none.MeanCPI)
	}
	for _, name := range []string{"lru", "benefit", "topk"} {
		o := outcomes[name]
		if o.MeanCPI > none.MeanCPI {
			t.Errorf("%s mean CPI %.4f worse than all-cold %.4f", name, o.MeanCPI, none.MeanCPI)
		}
		if o.MeanCPI < oracle.MeanCPI {
			t.Errorf("%s mean CPI %.4f beats the no-budget oracle %.4f", name, o.MeanCPI, oracle.MeanCPI)
		}
		if o.Warm == 0 {
			t.Errorf("%s: no warm invocations under a %d MiB budget", name, b>>20)
		}
	}
}

// TestBudgetMonotonicity checks that growing the budget never worsens the
// aggregate mean CPI for the static and recency policies (the property the
// check/props harness re-verifies fleet-wide).
func TestBudgetMonotonicity(t *testing.T) {
	tenants := sampleTenants(t, 33, 150)
	budgets := []uint64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20}
	for _, name := range []string{"topk", "benefit"} {
		prev := -1.0
		for _, b := range budgets {
			pol, err := budget.NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			o, err := budget.Run(tenants, runParams(17, b, pol))
			if err != nil {
				t.Fatalf("%s @ %d: %v", name, b, err)
			}
			if prev >= 0 && o.MeanCPI > prev+1e-9 {
				t.Errorf("%s: mean CPI rose from %.6f to %.6f when budget grew to %d MiB",
					name, prev, o.MeanCPI, b>>20)
			}
			prev = o.MeanCPI
		}
	}
}

// TestFrontier exercises the sweep: speedups are ≥1 relative to the
// all-cold baseline and the oracle dominates at every budget.
func TestFrontier(t *testing.T) {
	tenants := sampleTenants(t, 77, 120)
	budgets := []uint64{2 << 20, 8 << 20}
	points, err := budget.Frontier(context.Background(), tenants,
		[]string{"lru", "benefit", "oracle"}, budgets,
		budget.Params{Seed: 3, Duration: 20 * time.Second, Process: loadgen.Poisson})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d frontier points, want 6", len(points))
	}
	for _, pt := range points {
		if pt.MeanSpeedup < 1-1e-9 {
			t.Errorf("%s @ %d MiB: mean speedup %.4f below the all-cold baseline",
				pt.Policy, pt.BudgetBytes>>20, pt.MeanSpeedup)
		}
		if pt.P99Speedup <= 0 {
			t.Errorf("%s @ %d MiB: non-positive p99 speedup", pt.Policy, pt.BudgetBytes>>20)
		}
	}
}

// TestFrontierCancellation checks ctx cancellation aborts the sweep.
func TestFrontierCancellation(t *testing.T) {
	tenants := sampleTenants(t, 77, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := budget.Frontier(ctx, tenants, []string{"lru"}, []uint64{1 << 20},
		budget.Params{Seed: 3, Duration: 10 * time.Second}); err == nil {
		t.Fatal("cancelled frontier sweep returned no error")
	}
}

// TestAnalyticTracksSimulated anchors the closed-form model to the ground
// truth: for a handful of sampled functions the analytic and simulated
// models must agree that warm beats cold, and the analytic metadata sizes
// must respect the per-function cap like the simulator does.
func TestAnalyticTracksSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated cost model in -short mode")
	}
	fns, err := population.Sample(population.Params{Seed: 5, N: 40, TargetInstr: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	simModel := budget.Simulated{TargetInstr: 60_000}
	checked := map[population.Flavor]bool{}
	for _, f := range fns {
		if checked[f.Flavor] || f.Flavor == population.Huge {
			continue
		}
		checked[f.Flavor] = true
		ac, err := budget.Analytic{}.Costs(f)
		if err != nil {
			t.Fatalf("%s analytic: %v", f.Name, err)
		}
		sc, err := simModel.Costs(f)
		if err != nil {
			t.Fatalf("%s simulated: %v", f.Name, err)
		}
		if ac.WarmCPI >= ac.ColdCPI {
			t.Errorf("%s: analytic warm CPI %.3f not below cold %.3f", f.Name, ac.WarmCPI, ac.ColdCPI)
		}
		if sc.WarmCPI >= sc.ColdCPI {
			t.Errorf("%s: simulated warm CPI %.3f not below cold %.3f", f.Name, sc.WarmCPI, sc.ColdCPI)
		}
		if ac.MetaBytes > ignite.MaxMetadataBytes {
			t.Errorf("%s: analytic metadata %d exceeds the %d-byte cap", f.Name, ac.MetaBytes, ignite.MaxMetadataBytes)
		}
		if sc.MetaBytes == 0 || sc.MetaBytes > ignite.MaxMetadataBytes {
			t.Errorf("%s: simulated metadata %d outside (0, %d]", f.Name, sc.MetaBytes, ignite.MaxMetadataBytes)
		}
	}
}

// TestPolicyValidation exercises the error paths.
func TestPolicyValidation(t *testing.T) {
	if _, err := budget.NewPolicy("clairvoyant"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := budget.Run(nil, budget.Params{Policy: budget.NewLRU()}); err == nil {
		t.Error("empty tenant set accepted")
	}
	tenants := sampleTenants(t, 1, 5)
	if _, err := budget.Run(tenants, budget.Params{}); err == nil {
		t.Error("nil policy accepted")
	}
}

// BenchmarkFrontier is the fleet-frontier experiment's market sweep: every
// default policy across the default budget ladder over the default
// thousand-function population, including the all-cold baseline and the
// one schedule merge they share.
func BenchmarkFrontier(b *testing.B) {
	fp := experiments.DefaultFleetParams()
	fns, err := population.Sample(population.Params{Seed: fp.Seed, N: fp.N, RateScale: fp.RateScale})
	if err != nil {
		b.Fatal(err)
	}
	tenants, err := budget.Tenants(fns, budget.Analytic{})
	if err != nil {
		b.Fatal(err)
	}
	p := budget.Params{Seed: fp.Seed, Duration: fp.Duration, Process: fp.Process}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := budget.Frontier(context.Background(), tenants, fp.Policies, fp.Budgets, p); err != nil {
			b.Fatal(err)
		}
	}
}
