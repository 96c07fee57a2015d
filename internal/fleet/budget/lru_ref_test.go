package budget

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"ignite/internal/fleet/population"
	"ignite/internal/loadgen"
)

// refLRU is the reference model of the LRU policy: the original
// implementation, which re-sorts every resident by (last touch, tenant
// index) on each miss that must evict. It is kept only to check LRU's
// recency list against.
type refLRU struct {
	residency
	lastTouch []float64
}

func (p *refLRU) Name() string { return "lru" }

func (p *refLRU) Reset(tenants []Tenant, budget uint64) {
	p.reset(tenants, budget)
	p.lastTouch = make([]float64, len(tenants))
}

func (p *refLRU) OnHit(i int, now float64) { p.lastTouch[i] = now }

func (p *refLRU) OnMiss(i int, now float64) (bool, []int) {
	p.lastTouch[i] = now
	need := p.size[i]
	if need > p.budget {
		return false, nil
	}
	free := p.budget - p.used
	if free >= need {
		p.admit(i)
		return true, nil
	}
	// Evict coldest residents until the newcomer fits.
	type cand struct {
		idx   int
		touch float64
	}
	var cands []cand
	for j, res := range p.resident {
		if res {
			cands = append(cands, cand{j, p.lastTouch[j]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].touch != cands[b].touch {
			return cands[a].touch < cands[b].touch
		}
		return cands[a].idx < cands[b].idx
	})
	var victims []int
	for _, c := range cands {
		if free >= need {
			break
		}
		victims = append(victims, c.idx)
		free += p.size[c.idx]
	}
	for _, v := range victims {
		p.evict(v)
	}
	p.admit(i)
	return true, victims
}

// refPopulation samples and prices a fleet population for the differential
// tests.
func refPopulation(t testing.TB, seed uint64, n int) []Tenant {
	t.Helper()
	fns, err := population.Sample(population.Params{Seed: seed, N: n})
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := Tenants(fns, Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	return tenants
}

// TestLRUMatchesReference plays the same markets under LRU and refLRU and
// requires identical outcomes, floats included, across population seeds
// and a budget ladder from heavy eviction pressure to almost none.
func TestLRUMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sort-per-miss reference at full population size")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		tenants := refPopulation(t, seed, 1000)
		p := Params{Seed: seed, Duration: 30 * time.Second, Process: loadgen.Poisson}.withDefaults()
		events := mergedSchedule(tenants, p)
		for _, mib := range []uint64{1, 2, 8, 16, 32, 64} {
			p.BudgetBytes = mib << 20
			p.Policy = newRefLRU()
			want, err := play(tenants, p, events)
			if err != nil {
				t.Fatal(err)
			}
			p.Policy = NewLRU()
			got, err := play(tenants, p, events)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d @ %d MiB:\n got %+v\nwant %+v", seed, mib, got, want)
			}
			if mib <= 8 && got.Evictions == 0 {
				t.Errorf("seed %d @ %d MiB: no evictions, the comparison exercised nothing", seed, mib)
			}
		}
	}
}

func newRefLRU() *refLRU { return &refLRU{} }

// step is one policy decision in a replayed arrival sequence.
type step struct {
	hit     bool
	admit   bool
	victims []int
}

// replay drives a policy through events the way the market does, keeping
// the resident ledger from the policy's own answers.
func replay(pol Policy, tenants []Tenant, budget uint64, events []event) []step {
	pol.Reset(tenants, budget)
	resident := make([]bool, len(tenants))
	steps := make([]step, 0, len(events))
	for _, ev := range events {
		now := ev.at.Seconds()
		if resident[ev.tenant] {
			pol.OnHit(ev.tenant, now)
			steps = append(steps, step{hit: true})
			continue
		}
		admit, victims := pol.OnMiss(ev.tenant, now)
		for _, v := range victims {
			resident[v] = false
		}
		resident[ev.tenant] = admit
		steps = append(steps, step{admit: admit, victims: victims})
	}
	return steps
}

// checkSameDecisions replays events under LRU and refLRU and fails on the
// first decision where they part.
func checkSameDecisions(t *testing.T, tenants []Tenant, budget uint64, events []event) {
	t.Helper()
	want := replay(newRefLRU(), tenants, budget, events)
	got := replay(NewLRU(), tenants, budget, events)
	for k := range events {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("arrival %d (tenant %d at %v): LRU %+v, reference %+v",
				k, events[k].tenant, events[k].at, got[k], want[k])
		}
	}
}

// TestLRUSameTimeArrivals pins the tie rule: tenants that arrive at the
// same instant are ordered by index, so among equally recent residents the
// lowest index is evicted first.
func TestLRUSameTimeArrivals(t *testing.T) {
	tenants := make([]Tenant, 5)
	for i := range tenants {
		tenants[i].C.MetaBytes = 1 << 20
	}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	events := []event{
		{at(0), 0}, {at(0), 1}, {at(0), 2}, // fill a 3 MiB budget at one instant
		{at(1), 3},             // evicts 0: the lowest index of the t=0 tie
		{at(2), 1}, {at(2), 2}, // hits, at one instant
		{at(3), 4}, // evicts 3, the least recent
		{at(4), 0}, // evicts 1: ties with 2 at t=2, lower index
	}
	checkSameDecisions(t, tenants, 3<<20, events)
	got := replay(NewLRU(), tenants, 3<<20, events)
	for k, want := range map[int][]int{3: {0}, 6: {3}, 7: {1}} {
		if !reflect.DeepEqual(got[k].victims, want) {
			t.Errorf("arrival %d evicted %v, want %v", k, got[k].victims, want)
		}
	}
}

// FuzzLRU drives LRU and refLRU with random metadata sizes, a random budget
// and a random arrival sequence in nondecreasing time (ties in tenant
// order, as the market delivers them), and requires every admission and
// eviction to match.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 3, 4, 5, 0, 1, 2, 0x11, 0x20, 0x02})
	f.Add([]byte{8, 12, 7, 7, 7, 1, 1, 1, 9, 9, 0x00, 0x01, 0x02, 0x13, 0x04, 0x05, 0x16, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%16) + 1
		budget := uint64(data[1]%32+1) << 10
		data = data[2:]
		tenants := make([]Tenant, n)
		for i := range tenants {
			size := uint64(i%4+1) << 10
			if i < len(data) {
				size = uint64(data[i]%24) << 10 // zero-size and over-budget tenants included
			}
			tenants[i].C.MetaBytes = size
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		// Each byte is one arrival: the high bits advance the clock (often
		// not at all, so ties are common), the low bits pick the tenant.
		var events []event
		var clock time.Duration
		for _, b := range data {
			clock += time.Duration(b>>6) * time.Millisecond
			events = append(events, event{clock, int(b&0x3f) % n})
		}
		sort.SliceStable(events, func(a, b int) bool {
			if events[a].at != events[b].at {
				return events[a].at < events[b].at
			}
			return events[a].tenant < events[b].tenant
		})
		checkSameDecisions(t, tenants, budget, events)
	})
}

// BenchmarkLRUUnderPressure replays a thousand-tenant, 30-second market at
// an 8 MiB budget, where LRU evicts on most misses, under the recency-list
// LRU and the sort-per-miss reference. The schedule is merged once, outside
// the timer.
func BenchmarkLRUUnderPressure(b *testing.B) {
	tenants := refPopulation(b, 1, 1000)
	p := Params{Seed: 1, Duration: 30 * time.Second, BudgetBytes: 8 << 20}.withDefaults()
	events := mergedSchedule(tenants, p)
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{{"lru", func() Policy { return NewLRU() }}, {"ref", func() Policy { return newRefLRU() }}} {
		b.Run(pol.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Policy = pol.new()
				if _, err := play(tenants, p, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
