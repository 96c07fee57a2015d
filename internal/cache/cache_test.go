package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Name: "badline", SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{Name: "zeroways", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "badsets", SizeBytes: 64 * 3, LineBytes: 64, Ways: 1},
		{Name: "zerosize", SizeBytes: 0, LineBytes: 64, Ways: 2},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%s) accepted invalid config", cfg.Name)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t)
	addr := uint64(0x1000)
	if res := c.Access(addr, true); res.Hit {
		t.Fatal("hit in empty cache")
	}
	c.Insert(addr, ProvDemand)
	if res := c.Access(addr, true); !res.Hit {
		t.Fatal("miss after insert")
	}
	if res := c.Access(addr+63, true); !res.Hit {
		t.Fatal("same line, different offset missed")
	}
	if res := c.Access(addr+64, true); res.Hit {
		t.Fatal("next line should miss")
	}
	st := c.Stats()
	if st.Hits.Value() != 2 || st.Misses.Value() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", st.Hits.Value(), st.Misses.Value())
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t) // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = sets*line = 512).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Insert(a, ProvDemand)
	c.Insert(b, ProvDemand)
	c.Access(a, true) // make b the LRU
	ev, had := c.Insert(d, ProvDemand)
	if !had || ev.LineAddr != b {
		t.Fatalf("evicted %#x (had=%v), want %#x", ev.LineAddr, had, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("wrong resident set after eviction")
	}
}

func TestEvictionAddressReconstruction(t *testing.T) {
	c := smallCache(t)
	for _, addr := range []uint64{0x12340, 0x98765 &^ 63} {
		la := c.LineAddr(addr)
		c.Insert(la, ProvDemand)
		// Fill the set to force eviction of la.
		stride := uint64(512)
		ev1, _ := c.Insert(la+stride, ProvDemand)
		_ = ev1
		ev, had := c.Insert(la+2*stride, ProvDemand)
		if !had {
			t.Fatalf("no eviction for %#x", addr)
		}
		if ev.LineAddr != la {
			t.Errorf("evicted %#x, want %#x", ev.LineAddr, la)
		}
	}
}

func TestFirstTouchSemantics(t *testing.T) {
	c := smallCache(t)
	addr := uint64(0x40)
	c.Insert(addr, ProvPrefetch)
	res := c.Access(addr, true)
	if !res.Hit || !res.FirstTouch || res.Prov != ProvPrefetch {
		t.Fatalf("first access: %+v", res)
	}
	res = c.Access(addr, true)
	if !res.Hit || res.FirstTouch {
		t.Fatalf("second access should not be first touch: %+v", res)
	}
	if c.Stats().PrefetchUseful.Value() != 1 {
		t.Errorf("PrefetchUseful = %d, want 1", c.Stats().PrefetchUseful.Value())
	}
}

func TestNonDemandProbeDoesNotDisturb(t *testing.T) {
	c := smallCache(t)
	addr := uint64(0x80)
	c.Insert(addr, ProvPrefetch)
	res := c.Access(addr, false)
	if !res.Hit || res.FirstTouch {
		t.Fatalf("probe: %+v", res)
	}
	if c.Stats().Accesses.Value() != 0 {
		t.Error("probe counted as access")
	}
	// Demand access should still be the first touch.
	if res := c.Access(addr, true); !res.FirstTouch {
		t.Error("probe consumed first touch")
	}
}

func TestUnusedPrefetchAccounting(t *testing.T) {
	c := smallCache(t)
	c.Insert(0, ProvPrefetch)
	c.Insert(512, ProvPrefetch)
	c.Insert(1024, ProvDemand) // evicts LRU prefetch (line 0), untouched
	if got := c.Stats().PrefetchUnused.Value(); got != 1 {
		t.Errorf("PrefetchUnused after eviction = %d, want 1", got)
	}
	if got := c.SweepUnused(); got != 1 { // line 512 still resident, untouched
		t.Errorf("SweepUnused = %d, want 1", got)
	}
	if got := c.Stats().PrefetchUnused.Value(); got != 2 {
		t.Errorf("PrefetchUnused after sweep = %d, want 2", got)
	}
}

func TestFlushCountsUnusedAndEmpties(t *testing.T) {
	c := smallCache(t)
	c.Insert(0, ProvRestored)
	c.Insert(64, ProvDemand)
	c.Flush()
	if c.Occupancy() != 0 {
		t.Error("cache not empty after flush")
	}
	if got := c.Stats().PrefetchUnused.Value(); got != 1 {
		t.Errorf("PrefetchUnused after flush = %d, want 1", got)
	}
}

func TestInsertExistingUpgradesToDemand(t *testing.T) {
	c := smallCache(t)
	c.Insert(0, ProvPrefetch)
	c.Insert(0, ProvDemand)
	res := c.Access(0, true)
	if res.Prov != ProvDemand || res.FirstTouch {
		t.Errorf("after upgrade: %+v", res)
	}
}

// Property: occupancy never exceeds capacity and Contains is consistent
// with Access hits.
func TestCacheInvariantsProperty(t *testing.T) {
	c := smallCache(t)
	capLines := 1024 / 64
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a) * 32
			if c.Contains(c.LineAddr(addr)) != c.Access(addr, false).Hit {
				return false
			}
			c.Insert(addr, ProvDemand)
			if c.Occupancy() > capLines {
				return false
			}
			if !c.Access(addr, true).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProvenanceString(t *testing.T) {
	for p, want := range map[Provenance]string{
		ProvDemand: "demand", ProvWrongPath: "wrongpath",
		ProvPrefetch: "prefetch", ProvRestored: "restored",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t)
	c.Insert(0x100, ProvDemand)
	if !c.Invalidate(0x100) {
		t.Fatal("Invalidate missed a resident line")
	}
	if c.Contains(0x100) || c.Occupancy() != 0 {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0x100) {
		t.Error("Invalidate reported dropping an absent line")
	}

	// An untouched prefetched line counts as unused, like an eviction.
	c.Insert(0x200, ProvPrefetch)
	before := c.Stats().PrefetchUnused.Value()
	c.Invalidate(0x200)
	if c.Stats().PrefetchUnused.Value() != before+1 {
		t.Error("untouched prefetch invalidation not counted as unused")
	}
	// A demand-touched prefetched line does not.
	c.Insert(0x300, ProvPrefetch)
	c.Access(0x300, true)
	before = c.Stats().PrefetchUnused.Value()
	c.Invalidate(0x300)
	if c.Stats().PrefetchUnused.Value() != before {
		t.Error("touched prefetch invalidation counted as unused")
	}
}

func TestLinesReconstructsAddresses(t *testing.T) {
	c := smallCache(t)
	want := map[uint64]bool{}
	// Spread lines across sets (8 sets x 2 ways here).
	for i := uint64(0); i < 12; i++ {
		la := i * 64 * 3 // varied set/tag mix, line-aligned after LineAddr
		la = c.LineAddr(la)
		c.Insert(la, ProvDemand)
		want[la] = true
	}
	got := c.Lines()
	if len(got) != c.Occupancy() {
		t.Fatalf("Lines returned %d entries, occupancy is %d", len(got), c.Occupancy())
	}
	for _, la := range got {
		if !c.Contains(la) {
			t.Errorf("Lines reported %#x but Contains denies it", la)
		}
		if !want[la] {
			t.Errorf("Lines reported %#x which was never inserted", la)
		}
	}
}

// TestTickRenormalizationPreservesLRU drives two identical caches with the
// same seeded stream of demand accesses, prefetch probes, fills and
// invalidations. One cache's LRU clock is repeatedly pushed to just below
// maxTick, so it renormalizes every few hundred operations; the other
// never does. Renormalization must be invisible: every hit, FirstTouch
// flag and eviction must match step for step.
func TestTickRenormalizationPreservesLRU(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 4, HitLatency: 1}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := MustNew(cfg)
	rng := rand.New(rand.NewPCG(1, 2))
	const steps, every = 20000, 300
	for step := 0; step < steps; step++ {
		if step%every == 0 {
			if step > 0 && wrapped.tick >= maxTick-3 {
				t.Fatalf("step %d: no renormalization in the last %d steps", step, every)
			}
			// Jumping the clock forward keeps every stored timestamp older
			// than every future one, so relative recency is unchanged.
			wrapped.tick = maxTick - 3
		}
		addr := uint64(rng.IntN(48)) * 64 // 48 lines over 4 sets of 4 ways
		switch op := rng.IntN(10); {
		case op < 5:
			demand := op < 4
			a, b := ref.Access(addr, demand), wrapped.Access(addr, demand)
			if a != b {
				t.Fatalf("step %d: Access(%#x, %v) = %+v, renormalized cache %+v", step, addr, demand, a, b)
			}
			if demand && !a.Hit {
				evA, okA := ref.InsertAbsent(addr, ProvDemand)
				evB, okB := wrapped.InsertAbsent(addr, ProvDemand)
				if evA != evB || okA != okB {
					t.Fatalf("step %d: demand fill of %#x evicted %+v/%v, renormalized cache %+v/%v", step, addr, evA, okA, evB, okB)
				}
			}
		case op < 9:
			prov := Provenance(rng.IntN(4))
			evA, okA := ref.Insert(addr, prov)
			evB, okB := wrapped.Insert(addr, prov)
			if evA != evB || okA != okB {
				t.Fatalf("step %d: Insert(%#x, %s) evicted %+v/%v, renormalized cache %+v/%v", step, addr, prov, evA, okA, evB, okB)
			}
		default:
			if a, b := ref.Invalidate(addr), wrapped.Invalidate(addr); a != b {
				t.Fatalf("step %d: Invalidate(%#x) = %v, renormalized cache %v", step, addr, a, b)
			}
		}
	}
	if ref.tick >= maxTick-3 {
		t.Fatal("reference cache reached the renormalization threshold")
	}
	if *ref.Stats() != *wrapped.Stats() {
		t.Errorf("stats differ after %d renormalizations:\n%+v\n%+v", steps/every, *ref.Stats(), *wrapped.Stats())
	}
}
