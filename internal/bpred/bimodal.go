// Package bpred implements the conditional branch predictors of the
// simulated core: the bimodal base predictor (BIM), a TAGE predictor with
// geometric history lengths, and a loop predictor — composing them into the
// L-TAGE-style CBP of the paper's Table 2 (64 KiB L-TAGE + 5 KiB bimodal).
//
// The split matters to the paper: Ignite restores only the BIM (initialized
// to weakly-taken for every recorded branch), accepting a modest accuracy
// loss versus also restoring TAGE, whose state has no known efficient
// save/restore mechanism.
package bpred

import (
	"math/bits"
	"math/rand/v2"

	"ignite/internal/stats"
)

// Counter states of a 2-bit saturating counter.
const (
	StronglyNotTaken uint8 = 0
	WeaklyNotTaken   uint8 = 1
	WeaklyTaken      uint8 = 2
	StronglyTaken    uint8 = 3
)

// Bimodal is a table of 2-bit saturating counters indexed by branch PC.
type Bimodal struct {
	ctr  []uint8
	mask uint64
	stat BimodalStats
	// restored marks counters initialized by Ignite's replay and not yet
	// trained by a real outcome — the basis of the paper's Figure 9c
	// "induced misprediction" accounting.
	restored []bool
	// version increments on every counter mutation; TAGE's lookup memo uses
	// it to detect that a cached base prediction may have gone stale.
	version uint64
	// pcg is Randomize's source, reseeded in place so a thrash allocates
	// nothing.
	pcg rand.PCG
}

// BimodalStats counts predictions made while the bimodal was the effective
// provider; the composed CBP maintains overall accuracy.
type BimodalStats struct {
	Sets stats.Counter // explicit initializations (Ignite restore)
}

// NewBimodal creates a bimodal predictor with the given number of 2-bit
// counters (rounded down to a power of two). The paper's 5 KiB BIM holds
// 20K counters; we model 16K (4 KiB) to keep power-of-two indexing.
func NewBimodal(counters int) *Bimodal {
	if counters < 16 {
		counters = 16
	}
	n := 1 << (bits.Len(uint(counters)) - 1)
	return &Bimodal{ctr: make([]uint8, n), mask: uint64(n - 1), restored: make([]bool, n)}
}

func (b *Bimodal) index(pc uint64) uint64 {
	w := pc >> 2
	return (w ^ w>>13) & b.mask
}

// Predict returns the predicted direction for pc.
func (b *Bimodal) Predict(pc uint64) bool {
	return b.ctr[b.index(pc)] >= WeaklyTaken
}

// Counter returns the raw 2-bit counter for pc.
func (b *Bimodal) Counter(pc uint64) uint8 { return b.ctr[b.index(pc)] }

// Update trains the counter with the actual outcome.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.version++
	b.restored[i] = false
	if taken {
		if b.ctr[i] < StronglyTaken {
			b.ctr[i]++
		}
	} else if b.ctr[i] > StronglyNotTaken {
		b.ctr[i]--
	}
}

// Set initializes the counter for pc — Ignite's replay uses WeaklyTaken
// (Section 4.2); the Figure 11 study also evaluates WeaklyNotTaken.
func (b *Bimodal) Set(pc uint64, val uint8) {
	if val > StronglyTaken {
		val = StronglyTaken
	}
	i := b.index(pc)
	b.version++
	b.ctr[i] = val
	b.restored[i] = true
	b.stat.Sets.Inc()
}

// WasRestored reports whether pc's counter still holds an untrained Ignite
// initialization.
func (b *Bimodal) WasRestored(pc uint64) bool { return b.restored[b.index(pc)] }

// Flush resets every counter to weakly-not-taken.
func (b *Bimodal) Flush() {
	b.version++
	for i := range b.ctr {
		b.ctr[i] = WeaklyNotTaken
		b.restored[i] = false
	}
}

// Randomize overwrites the table with random counter states, the lukewarm
// methodology of the paper's Section 5.3. Uint64()&3 is rand.Rand.UintN(4)
// bit for bit on 64-bit platforms (a power-of-two bound is a mask there),
// without the Rand wrapper and its per-draw interface call.
func (b *Bimodal) Randomize(seed uint64) {
	b.version++
	b.pcg.Seed(seed, seed^0xa5a5a5a5deadbeef)
	for i := range b.ctr {
		b.ctr[i] = uint8(b.pcg.Uint64() & 3)
		b.restored[i] = false
	}
}

// Size returns the number of counters.
func (b *Bimodal) Size() int { return len(b.ctr) }

// Stats returns the bimodal statistics collector.
func (b *Bimodal) Stats() *BimodalStats { return &b.stat }

// Snapshot deep-copies the counter table.
func (b *Bimodal) Snapshot() []uint8 {
	cp := make([]uint8, len(b.ctr))
	copy(cp, b.ctr)
	return cp
}

// Restore reinstates a snapshot from an identically sized bimodal.
func (b *Bimodal) Restore(snap []uint8) {
	if len(snap) != len(b.ctr) {
		panic("bpred: bimodal snapshot size mismatch")
	}
	b.version++
	copy(b.ctr, snap)
}
