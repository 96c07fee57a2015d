package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a tail percentile must leave above
// it. A percentile with fewer samples beyond it is mostly one outlier, so
// the helper refuses it instead of reporting a number that cannot repeat.
const minBeyond = 10

// Samples is a set of measurements of one quantity.
type Samples []float64

// N is the sample count every reported percentile states.
func (s Samples) N() int { return len(s) }

func (s Samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// Median returns the middle value (the mean of the two middle values for an
// even count). It is defined for any non-empty set.
func (s Samples) Median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p < 100). A
// percentile above the median is refused when fewer than minBeyond samples
// lie beyond it.
func (s Samples) Percentile(p float64) (float64, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d",
			p, n, n-rank, minBeyond)
	}
	return s.sorted()[rank-1], nil
}

// Quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method).
func (s Samples) Quartiles() (q1, q3 float64) {
	c := s.sorted()
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4, 1-based, interpolated and clamped to the data.
		m := n + 1
		idx := j * m / 4
		delta := float64(j*m%4) / 4
		switch {
		case idx < 1:
			return c[0]
		case idx >= n:
			return c[n-1]
		}
		return c[idx-1] + (c[idx]-c[idx-1])*delta
	}
	return at(1), at(3)
}

// share returns part over base, or 0 when there is no base.
func share(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return part / base
}
