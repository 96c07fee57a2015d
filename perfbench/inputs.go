package main

import (
	"math"
	"math/rand/v2"
	"time"

	"ignite/internal/workload"
)

// Stream tags keep the seed's uses independent: the same --seed drives the
// function picks and the request schedule through separate PCG streams.
const (
	streamFunctions = 0x66756e63 // "func"; the i-th pick adds i<<32
	streamSchedule  = 0x73636864 // "schd"
)

// pickFunctions draws perLang distinct Table-1 functions per language
// runtime, in the catalog's plot order, each with its instruction budget set
// to budget.
func pickFunctions(seed, budget uint64, perLang int) []workload.Spec {
	return pickFunctionsAt(seed, 0, budget, perLang)
}

// pickFunctionsAt is the i-th pick of the seed's sequence of picks.
func pickFunctionsAt(seed, i, budget uint64, perLang int) []workload.Spec {
	rng := rand.New(rand.NewPCG(seed, streamFunctions+i<<32))
	byLang := map[workload.Lang][]workload.Spec{}
	for _, s := range workload.All() {
		byLang[s.Lang] = append(byLang[s.Lang], s)
	}
	picked := map[string]bool{}
	for _, l := range []workload.Lang{workload.Python, workload.NodeJS, workload.Go} {
		cands := byLang[l]
		for _, i := range rng.Perm(len(cands))[:perLang] {
			picked[cands[i].Name] = true
		}
	}
	var out []workload.Spec
	for _, s := range workload.All() {
		if picked[s.Name] {
			s.TargetInstr = budget
			out = append(out, s)
		}
	}
	return out
}

// allPicks returns every pick of one function per language runtime.
func allPicks(budget uint64) [][]workload.Spec {
	byLang := map[workload.Lang][]workload.Spec{}
	for _, s := range allFunctions(budget) {
		byLang[s.Lang] = append(byLang[s.Lang], s)
	}
	var out [][]workload.Spec
	for _, p := range byLang[workload.Python] {
		for _, n := range byLang[workload.NodeJS] {
			for _, g := range byLang[workload.Go] {
				out = append(out, []workload.Spec{p, n, g})
			}
		}
	}
	return out
}

// allFunctions returns the 20 Table-1 functions at the given budget.
func allFunctions(budget uint64) []workload.Spec {
	specs := workload.All()
	for i := range specs {
		specs[i].TargetInstr = budget
	}
	return specs
}

// serveCell is one (function, configuration) pair the server can be asked
// for.
type serveCell struct {
	Function string
	Config   string
}

// request is one scheduled invocation request: when it is due (from the
// start of the schedule), which cell it asks for, and whether it is the
// first request for that cell.
type request struct {
	Due   time.Duration
	Cell  int
	First bool
}

// schedule is an open-loop request schedule over a growing set of cells.
type schedule struct {
	Cells []serveCell
	Reqs  []request
}

// scheduleParams shapes a serve-mix schedule.
type scheduleParams struct {
	Rate       float64       // mean arrivals per second (Poisson)
	Duration   time.Duration // schedule length
	FirstShare float64       // probability that a request asks for a new cell
	ZipfS      float64       // Zipf exponent over the cells requested so far
}

// makeSchedule draws a Poisson arrival schedule in which a FirstShare of
// the requests (rounded, and always the first request) are the first
// request for a new cell, at seed-chosen positions. Every other request
// repeats a cell already requested, picked Zipf by order of first request
// (the oldest cell is the most popular).
//
// New cells are drawn stratified, so that every seed asks for a similar mix
// of small and large cells: functions (which the caller sorts by size) are
// cut into as many equal strata as there are new cells, and the k-th new
// cell takes a random function of the k-th stratum in a seed-chosen order;
// configurations are dealt round-robin in a seed-chosen order.
func makeSchedule(seed uint64, functions, configs []string, p scheduleParams) schedule {
	rng := rand.New(rand.NewPCG(seed, streamSchedule))
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
		if t >= p.Duration {
			break
		}
		due = append(due, t)
	}
	if len(due) == 0 {
		return schedule{}
	}
	firsts := min(len(functions)*len(configs), max(1, int(math.Round(p.FirstShare*float64(len(due))))))
	first := map[int]bool{0: true}
	for _, i := range rng.Perm(len(due) - 1)[:firsts-1] {
		first[i+1] = true
	}
	strata := min(len(functions), firsts)
	stratumOrder, configOrder := rng.Perm(strata), rng.Perm(len(configs))
	used := map[serveCell]bool{}
	var s schedule
	for i, t := range due {
		if !first[i] {
			s.Reqs = append(s.Reqs, request{Due: t, Cell: zipf(rng, len(s.Cells), p.ZipfS)})
			continue
		}
		k := len(s.Cells)
		st := stratumOrder[k%strata]
		lo, hi := st*len(functions)/strata, (st+1)*len(functions)/strata
		c := serveCell{Function: functions[lo+rng.IntN(hi-lo)], Config: configs[configOrder[k%len(configs)]]}
		for used[c] {
			// The draw is taken: widen to every function.
			c.Function = functions[rng.IntN(len(functions))]
		}
		used[c] = true
		s.Cells = append(s.Cells, c)
		s.Reqs = append(s.Reqs, request{Due: t, Cell: k, First: true})
	}
	return s
}

// zipf draws a rank in [0, n) with P(k) proportional to 1/(k+1)^s.
func zipf(rng *rand.Rand, n int, s float64) int {
	var total float64
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
	}
	u := rng.Float64() * total
	for k := 1; k <= n; k++ {
		u -= math.Pow(float64(k), -s)
		if u < 0 {
			return k - 1
		}
	}
	return n - 1
}
