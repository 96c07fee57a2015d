package cache

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// refCache is a naive reference model of Cache: a map from line address to
// line state for residency, plus one recency list per set (least recently
// used first). It has no packing, no ways and no clock, so it states the
// replacement and accounting rules the packed cache must reproduce.
type refCache struct {
	lineBits uint
	sets     uint64
	ways     int
	lines    map[uint64]*refLine
	lru      [][]uint64
	stats    Stats
}

type refLine struct {
	prov    Provenance
	touched bool
}

func newRefCache(cfg Config) *refCache {
	c := MustNew(cfg)
	return &refCache{
		lineBits: c.lineBits,
		sets:     uint64(c.sets),
		ways:     c.ways,
		lines:    make(map[uint64]*refLine),
		lru:      make([][]uint64, c.sets),
	}
}

func (r *refCache) lineOf(addr uint64) (la uint64, set uint64) {
	return addr >> r.lineBits << r.lineBits, addr >> r.lineBits % r.sets
}

func (l *refLine) unused() bool { return !l.touched && l.prov != ProvDemand }

func (r *refCache) toMRU(la, set uint64) {
	list := r.lru[set]
	i := slices.Index(list, la)
	r.lru[set] = append(slices.Delete(list, i, i+1), la)
}

func (r *refCache) drop(la, set uint64) {
	i := slices.Index(r.lru[set], la)
	r.lru[set] = slices.Delete(r.lru[set], i, i+1)
	delete(r.lines, la)
}

func (r *refCache) Access(addr uint64, demand bool) AccessResult {
	la, set := r.lineOf(addr)
	if demand {
		r.stats.Accesses.Inc()
	}
	l, ok := r.lines[la]
	if !ok {
		if demand {
			r.stats.Misses.Inc()
		}
		return AccessResult{}
	}
	if !demand {
		return AccessResult{Hit: true, Prov: l.prov}
	}
	r.stats.Hits.Inc()
	r.toMRU(la, set)
	first := l.unused()
	if first {
		r.stats.PrefetchUseful.Inc()
	}
	l.touched = true
	return AccessResult{Hit: true, FirstTouch: first, Prov: l.prov}
}

func (r *refCache) Insert(addr uint64, prov Provenance) (Eviction, bool) {
	la, set := r.lineOf(addr)
	if l, ok := r.lines[la]; ok {
		r.toMRU(la, set)
		if prov == ProvDemand {
			l.prov, l.touched = ProvDemand, true
		}
		return Eviction{}, false
	}
	return r.fill(addr, prov)
}

// fill places an absent line, evicting the set's least recently used line
// when the set is full.
func (r *refCache) fill(addr uint64, prov Provenance) (Eviction, bool) {
	la, set := r.lineOf(addr)
	ev, evicted := Eviction{}, false
	if len(r.lru[set]) == r.ways {
		victim := r.lru[set][0]
		l := r.lines[victim]
		ev, evicted = Eviction{LineAddr: victim, Prov: l.prov, Touched: l.touched}, true
		r.stats.Evictions.Inc()
		if l.unused() {
			r.stats.PrefetchUnused.Inc()
		}
		r.drop(victim, set)
	}
	r.lines[la] = &refLine{prov: prov, touched: prov == ProvDemand}
	r.lru[set] = append(r.lru[set], la)
	r.stats.Inserts.Inc()
	return ev, evicted
}

func (r *refCache) AccessFill(addr uint64, prov Provenance) (AccessResult, Eviction, bool) {
	if res := r.Access(addr, true); res.Hit {
		return res, Eviction{}, false
	}
	ev, ok := r.fill(addr, prov)
	return AccessResult{}, ev, ok
}

func (r *refCache) Invalidate(addr uint64) bool {
	la, set := r.lineOf(addr)
	l, ok := r.lines[la]
	if !ok {
		return false
	}
	if l.unused() {
		r.stats.PrefetchUnused.Inc()
	}
	r.drop(la, set)
	return true
}

func (r *refCache) SweepUnused() int {
	n := 0
	for _, l := range r.lines {
		if l.unused() {
			r.stats.PrefetchUnused.Inc()
			n++
		}
	}
	return n
}

func (r *refCache) Flush() {
	r.SweepUnused()
	clear(r.lines)
	for i := range r.lru {
		r.lru[i] = r.lru[i][:0]
	}
}

func (r *refCache) Lines() []uint64 {
	out := make([]uint64, 0, len(r.lines))
	for la := range r.lines {
		out = append(out, la)
	}
	slices.Sort(out)
	return out
}

// checkFilledList verifies the bookkeeping Flush relies on: every resident
// way is listed, and the filled list holds exactly the listed ways, each
// once.
func checkFilledList(c *Cache) string {
	onList := make([]bool, len(c.pk))
	for _, i := range c.filled {
		if onList[i] {
			return "way listed twice"
		}
		onList[i] = true
	}
	for i := range c.pk {
		listed := c.meta[i]&metaListed != 0
		if listed != onList[i] {
			return "metaListed bit disagrees with the filled list"
		}
		if c.pk[i] != emptyWord && !listed {
			return "resident way missing from the filled list"
		}
	}
	return ""
}

// Ops of the reference fuzz stream, one per 3-byte record (op, line, arg).
const (
	opAccessInsert = iota // demand Access, InsertAbsent on a miss
	opAccess              // demand Access alone
	opProbe               // non-demand Access
	opInsert
	opAccessFill
	opInvalidate
	opFlush
	opSweep
	opPushClock // jump the clock to maxTick-3 so renormalization runs soon
	opSentinel  // probes whose tag equals the empty-way sentinel
	numOps
)

// runReference drives a packed Cache and the reference model with the op
// stream in data and reports the first divergence. data[0] picks the
// associativity (1, 2, 4 or 8 ways over 4 sets). A second packed cache,
// twin, takes every AccessFill as Access then InsertAbsent: the way layout
// the reference cannot see must match it exactly, so the fused scan picks
// the same victim way as fill.
func runReference(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	ways := 1 << (data[0] & 3)
	cfg := Config{Name: "fuzz", SizeBytes: ways * 4 * 64, LineBytes: 64, Ways: ways, HitLatency: 1}
	c, twin, r := MustNew(cfg), MustNew(cfg), newRefCache(cfg)
	lineSpan := byte(3 * ways * 4) // three lines per way: plenty of conflict
	// The lowest line address whose tag is tagEmpty32: line index
	// 0xFFFFFFFF<<setBits in set 0.
	sentinel := uint64(tagEmpty32) << c.setBits << c.lineBits
	for step, rec := 0, data[1:]; len(rec) >= 3; step, rec = step+1, rec[3:] {
		op, arg := rec[0]%numOps, rec[2]
		addr := uint64(rec[1]%lineSpan)*64 + uint64(arg>>2)
		prov := Provenance(arg & 3)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d, addr %#x, prov %s): "+format, append([]any{step, op, addr, prov}, args...)...)
		}
		switch op {
		case opAccessInsert, opAccess, opProbe:
			demand := op != opProbe
			got, want := c.Access(addr, demand), r.Access(addr, demand)
			twin.Access(addr, demand)
			if got != want {
				fail("Access = %+v, reference %+v", got, want)
			}
			if op == opAccessInsert && !got.Hit {
				twin.InsertAbsent(addr, prov)
				ev, ok := c.InsertAbsent(addr, prov)
				wev, wok := r.fill(addr, prov)
				if ev != wev || ok != wok {
					fail("InsertAbsent evicted %+v/%v, reference %+v/%v", ev, ok, wev, wok)
				}
			}
		case opInsert:
			twin.Insert(addr, prov)
			ev, ok := c.Insert(addr, prov)
			wev, wok := r.Insert(addr, prov)
			if ev != wev || ok != wok {
				fail("Insert evicted %+v/%v, reference %+v/%v", ev, ok, wev, wok)
			}
		case opAccessFill:
			if !twin.Access(addr, true).Hit {
				twin.InsertAbsent(addr, prov)
			}
			res, ev, ok := c.AccessFill(addr, prov)
			wres, wev, wok := r.AccessFill(addr, prov)
			if res != wres || ev != wev || ok != wok {
				fail("AccessFill = %+v %+v/%v, reference %+v %+v/%v", res, ev, ok, wres, wev, wok)
			}
		case opInvalidate:
			twin.Invalidate(addr)
			if got, want := c.Invalidate(addr), r.Invalidate(addr); got != want {
				fail("Invalidate = %v, reference %v", got, want)
			}
		case opFlush:
			twin.Flush()
			c.Flush()
			r.Flush()
		case opSweep:
			twin.SweepUnused()
			if got, want := c.SweepUnused(), r.SweepUnused(); got != want {
				fail("SweepUnused = %d, reference %d", got, want)
			}
		case opPushClock:
			// Only ever forward: every stored timestamp stays older than
			// every future one, so recency is unchanged.
			if c.tick < maxTick-3 {
				c.tick = maxTick - 3
				twin.tick = maxTick - 3
			}
		case opSentinel:
			if c.Contains(sentinel) || c.Access(sentinel, false).Hit || c.Invalidate(sentinel) {
				fail("a probe with the sentinel tag hit an invalid way")
			}
		}
		got := c.Lines()
		if want := r.Lines(); !slices.Equal(sortedCopy(got), want) {
			fail("Lines = %#x, reference %#x", got, want)
		}
		if want := twin.Lines(); !slices.Equal(got, want) {
			fail("Lines in way order = %#x, unfused twin %#x", got, want)
		}
		if *c.Stats() != r.stats {
			fail("Stats = %+v, reference %+v", *c.Stats(), r.stats)
		}
		if msg := checkFilledList(c); msg != "" {
			fail("%s", msg)
		}
	}
}

func sortedCopy(s []uint64) []uint64 {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// FuzzCacheMatchesReference drives the packed cache and the naive reference
// model with one op stream — demand and non-demand accesses, inserts,
// fused access-fills, invalidations, flushes, unused sweeps, clock pushes
// that force tick renormalization, and sentinel-tag probes — and requires
// identical results, residency and statistics after every op.
func FuzzCacheMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xcace))
		data := make([]byte, 1+3*400)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		data[0] = byte(seed) // every associativity
		f.Add(data)
	}
	// Fill-heavy streams: flushes and clock pushes are rare, so sets stay
	// full and evictions and renormalizations dominate.
	for ways := byte(0); ways < 4; ways++ {
		rng := rand.New(rand.NewPCG(uint64(ways), 0xf111))
		data := []byte{ways}
		for i := 0; i < 600; i++ {
			op := []byte{opAccessInsert, opAccessFill, opInsert, opProbe, opInvalidate}[rng.IntN(5)]
			if i%150 == 149 {
				op = opPushClock
			}
			data = append(data, op, byte(rng.Uint32()), byte(rng.Uint32()))
		}
		f.Add(data)
	}
	f.Fuzz(runReference)
}

// TestSentinelTagProbeMisses is the regression test for probes whose tag
// equals the empty-way sentinel: on an empty L1-D such an address must miss
// every probe and leave every way untouched (before the fix it hit an
// invalid way and stamped a timestamp into it). A fill of it still panics.
func TestSentinelTagProbeMisses(t *testing.T) {
	c := MustNew(Config{Name: "L1D", SizeBytes: 48 << 10, LineBytes: 64, Ways: 12, HitLatency: 4})
	addr := uint64(tagEmpty32) << 12 // 64 sets of 64 B lines: tag = addr >> 12
	if c.Contains(addr) {
		t.Error("Contains reports the sentinel-tag line resident in an empty cache")
	}
	if res := c.Access(addr, false); res.Hit {
		t.Error("non-demand Access hit an invalid way")
	}
	if res := c.Access(addr, true); res.Hit {
		t.Error("demand Access hit an invalid way")
	}
	if c.Invalidate(addr) {
		t.Error("Invalidate dropped a line from an empty cache")
	}
	func() {
		defer func() {
			v := recover()
			if s, _ := v.(string); !strings.Contains(s, "out of the 32-bit tag range") {
				t.Errorf("AccessFill of the sentinel tag: recovered %v, want the tag-range panic", v)
			}
		}()
		c.AccessFill(addr, ProvDemand)
	}()
	for i, w := range c.pk {
		if w != emptyWord {
			t.Fatalf("way %d holds %#x after sentinel probes, want empty", i, w)
		}
	}
	if st := c.Stats(); st.Hits.Value() != 0 || st.Misses.Value() != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", st.Hits.Value(), st.Misses.Value())
	}
}
