package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testSchedule(seed uint64) schedule {
	var fns []string
	for i := 0; i < 100; i++ {
		fns = append(fns, fmt.Sprintf("f%d", i))
	}
	cfgs := []string{"nl", "ignite", "fdp"}
	return makeSchedule(seed, fns, cfgs, scheduleParams{Rate: 200, Duration: 20 * time.Second, FirstShare: 0.03, ZipfS: 1.1})
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, b := testSchedule(7), testSchedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a.Reqs, testSchedule(8).Reqs) {
		t.Fatal("two seeds gave one schedule")
	}
	if !a.Reqs[0].First {
		t.Fatal("the first request must be a first request")
	}
	firsts, seen := 0, map[int]bool{}
	for i, r := range a.Reqs {
		if i > 0 && r.Due < a.Reqs[i-1].Due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if r.First != !seen[r.Cell] {
			t.Fatalf("request %d: First=%v for a cell seen=%v", i, r.First, seen[r.Cell])
		}
		seen[r.Cell] = true
		if r.First {
			firsts++
		}
	}
	if n := len(a.Reqs); n < 3600 || n > 4400 {
		t.Fatalf("%d requests in 20s at 200/s", n)
	}
	if got := float64(firsts) / float64(len(a.Reqs)); got < 0.015 || got > 0.045 {
		t.Fatalf("first-request share %.3f, want about 0.03", got)
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	draw := func(seed uint64) []int {
		rng := rand.New(rand.NewPCG(seed, 1))
		out := make([]int, 5000)
		for i := range out {
			out[i] = zipf(rng, 20, 1.1)
		}
		return out
	}
	a := draw(3)
	if !reflect.DeepEqual(a, draw(3)) {
		t.Fatal("one seed gave two Zipf sequences")
	}
	counts := make([]int, 20)
	for _, k := range a {
		if k < 0 || k >= 20 {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[19]) {
		t.Fatalf("ranks not Zipf-skewed: %v", counts)
	}
}

func TestPickFunctionsOnePerRuntime(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		specs := pickFunctions(seed, 1234, 2)
		if len(specs) != 6 {
			t.Fatalf("seed %d: %d functions", seed, len(specs))
		}
		langs := map[string]bool{}
		for _, s := range specs {
			langs[s.Lang.String()] = true
			if s.TargetInstr != 1234 {
				t.Fatalf("seed %d: %s budget %d", seed, s.Name, s.TargetInstr)
			}
		}
		if len(langs) != 3 || specs[0].Name == specs[1].Name {
			t.Fatalf("seed %d: runtimes %v", seed, langs)
		}
		if !reflect.DeepEqual(specs, pickFunctions(seed, 1234, 2)) {
			t.Fatalf("seed %d: two picks", seed)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	s := make(Samples, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if _, err := s.Percentile(99); err == nil {
		t.Fatal("p99 of 100 samples leaves 1 beyond it and must be refused")
	}
	if p90, err := s.Percentile(90); err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", p90, err)
	}
	big := make(Samples, 1100)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if p99, err := big.Percentile(99); err != nil || p99 != 1089 {
		t.Fatalf("p99 of 1..1100 = %v, %v", p99, err)
	}
	if m := (Samples{3, 1, 2}).Median(); m != 2 {
		t.Fatalf("median %v", m)
	}
	if m := (Samples{4, 1, 2, 3}).Median(); m != 2.5 {
		t.Fatalf("median %v", m)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := Samples{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := s.Quartiles(); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := (Samples{1, 2, 3}).Quartiles(); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles %v %v, want 1 3", q1, q3)
	}
}

// burn spins until this process has used d of CPU (on a loaded host that
// takes longer than d of wall time).
func burn(t *testing.T, d time.Duration) {
	x := 0.0
	c0, t0 := selfCPU(), time.Now()
	for selfCPU()-c0 < d {
		if time.Since(t0) > 20*d {
			t.Fatalf("used %v of CPU in %v of wall time", selfCPU()-c0, time.Since(t0))
		}
		for i := 0; i < 100000; i++ {
			x += float64(i)
		}
	}
	sink = x
}

var sink float64

func TestCPUReaders(t *testing.T) {
	c0 := selfCPU()
	p0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	burn(t, 300*time.Millisecond)
	c1 := selfCPU()
	p1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// /proc counts in clock ticks; allow a few ticks either way.
	if d, ref := p1-p0, c1-c0; d < ref-5*clockTick || d > ref+5*clockTick {
		t.Fatalf("/proc saw %v, getrusage %v", d, ref)
	}
	got, err := parseStatCPU([]byte("42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0"))
	if err != nil || got != 300*clockTick {
		t.Fatalf("parseStatCPU = %v, %v; want 3s", got, err)
	}
}

func TestRSSReaders(t *testing.T) {
	before := selfPeakRSS()
	proc, err := procPeakRSS(os.Getpid())
	if err != nil || proc == 0 {
		t.Fatalf("procPeakRSS = %v, %v", proc, err)
	}
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	after := selfPeakRSS()
	runtime.KeepAlive(buf)
	if after < 64<<20 || after < before {
		t.Fatalf("peak RSS %d -> %d after touching 64 MiB", before, after)
	}
	if proc2, err := procPeakRSS(os.Getpid()); err != nil || proc2 < 64<<20 {
		t.Fatalf("VmHWM %d after touching 64 MiB, %v", proc2, err)
	}
	got, err := parseVmHWM(strings.NewReader("Name:\tx\nVmPeak:\t 10 kB\nVmHWM:\t    2048 kB\n"))
	if err != nil || got != 2048*1024 {
		t.Fatalf("parseVmHWM = %v, %v", got, err)
	}
}

func TestCoveredUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{Start: 0, End: 100 * ms}
	kids := []span{{Start: 50 * ms, End: 70 * ms}, {Start: 10 * ms, End: 30 * ms}, {Start: 20 * ms, End: 40 * ms}, {Start: 90 * ms, End: 120 * ms}}
	if got := covered(parent, kids); got != 60*ms {
		t.Fatalf("covered %v, want 60ms", got)
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics the
// program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Fatalf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Fatalf("per_layer differs:\n%v\n%v", b.PerLayer, perLayer)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
