// Command perfbench is the repository's benchmark. It runs one workload,
// measures it for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit and sample count.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 they
// are the per-layer metrics, and the run also writes a Chrome trace-event
// file of its spans. See README.md for the workloads and metrics.
//
// Run it through run.sh from the repository root, which builds it and the
// ignite binaries it drives:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ignite/internal/sim"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runner) error{
	"sweep-all":  sweepAll,
	"sweep-warm": sweepWarm,
	"serve-mix":  serveMix,
	"sweep-dist": sweepDist,
}

// metricDef declares one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, reported with tracing
// off on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"cold_req_p50_ms", "ms", "lower"},
	{"slo_share", "ratio", "higher"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload that does not exercise a layer reports its metrics as 0 with
// no samples.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"workload.build_ms", "ms", "lower"},
		{"cfg.walk_ns_per_instr", "ns", "lower"},
		{"sim.new_ms", "ms", "lower"},
		{"engine.ns_per_instr", "ns", "lower"},
	}
	for _, k := range kindNames() {
		d = append(d, metricDef{"engine.ns_per_instr." + k, "ns", "lower"})
	}
	for _, sc := range snapshotCounts {
		d = append(d, metricDef{sc.name, "count", "lower"})
	}
	return append(d,
		metricDef{"experiments.paper_s", "s", "lower"},
		metricDef{"experiments.ablation_s", "s", "lower"},
		metricDef{"experiments.fleet_s", "s", "lower"},
		metricDef{"experiments.parallelism_paper", "ratio", "higher"},
		metricDef{"experiments.parallelism_ablation", "ratio", "higher"},
		metricDef{"experiments.parallelism_fleet", "ratio", "higher"},
		metricDef{"experiments.cell_ms_p50", "ms", "lower"},
		metricDef{"experiments.cell_ms_p90", "ms", "lower"},
		metricDef{"experiments.cells_computed", "count", "lower"},
		metricDef{"experiments.cell_requests", "count", "lower"},
		metricDef{"experiments.cache_hit_share", "ratio", "higher"},
		metricDef{"experiments.render_ms", "ms", "lower"},
		metricDef{"store.put_us", "us", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.encode_us", "us", "lower"},
		metricDef{"store.decode_us", "us", "lower"},
		metricDef{"store.record_kib", "KiB", "lower"},
		metricDef{"store.loads", "count", "lower"},
		metricDef{"store.hit_share", "ratio", "higher"},
		metricDef{"serve.requests", "count", "higher"},
		metricDef{"serve.fast_path_share", "ratio", "higher"},
		metricDef{"serve.hot_req_p50_ms", "ms", "lower"},
		metricDef{"serve.req_p99_ms", "ms", "lower"},
		metricDef{"serve.batches", "count", "lower"},
		metricDef{"serve.batch_size_mean", "ratio", "higher"},
		metricDef{"serve.shed", "count", "lower"},
		metricDef{"serve.cell_ms", "ms", "lower"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower"},
		metricDef{"dist.tasks", "count", "lower"},
		metricDef{"dist.steals", "count", "lower"},
		metricDef{"dist.failovers", "count", "lower"},
		metricDef{"dist.hedges", "count", "lower"},
		metricDef{"dist.hedge_wins", "count", "higher"},
		metricDef{"dist.hedge_waste_share", "ratio", "lower"},
		metricDef{"dist.remote_ms_p50", "ms", "lower"},
		metricDef{"dist.remote_ms_p90", "ms", "lower"},
		metricDef{"dist.roundtrip_ms", "ms", "lower"},
		metricDef{"dist.local_ratio", "ratio", "lower"},
		metricDef{"obs.trace_overhead_pct", "%", "lower"},
		metricDef{"go.alloc_mib", "MiB", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
	)
}()

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// e2eStats collects the end-to-end measurements of one pass.
type e2eStats struct {
	setup, wall, cpu  Samples // s
	req, cold         Samples // ms
	peak              uint64  // bytes
	sloOK, sloTotal   int
	attempted, failed int
}

func (e *e2eStats) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":         {e.setup.Median(), "s", e.setup.N()},
		"wall_s":          {e.wall.Median(), "s", e.wall.N()},
		"cpu_s":           {e.cpu.Median(), "s", e.cpu.N()},
		"peak_rss_mb":     {float64(e.peak) / (1 << 20), "MiB", 1},
		"req_p50_ms":      {e.req.Median(), "ms", e.req.N()},
		"cold_req_p50_ms": {e.cold.Median(), "ms", e.cold.N()},
		"slo_share":       {share(float64(e.sloOK), float64(e.sloTotal)), "ratio", e.sloTotal},
	}
}

// runner is one pass of one workload.
type runner struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool // record spans and audit every invocation with internal/check
	bin      string
	scratch  string
	stored   digestFile
	rec      *recorder
	check    *checker
	e        e2eStats
	layer    map[string]metric
}

// more reports whether another measured unit fits: the first always runs,
// a later one only if the last unit's duration still fits in the phase.
func (w *runner) more(start time.Time, units int, last time.Duration) bool {
	return units == 0 || time.Since(start)+last <= w.seconds
}

func (w *runner) set(name, unit string, v float64, n int) {
	w.layer[name] = metric{Value: v, Unit: unit, N: n}
}

// setPercentiles reports the median and the 90th percentile of s. A
// percentile the helper refuses for lack of samples stays unreported.
func (w *runner) setPercentiles(name string, s Samples) {
	w.set(name+"_p50", "ms", s.Median(), s.N())
	if p90, err := s.Percentile(90); err == nil {
		w.set(name+"_p90", "ms", p90, s.N())
	}
}

// fingerprint identifies the host a result was measured on. Results with
// different fingerprints are not comparable.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// resultFile is the full record of one run, written next to the build.
type resultFile struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: sweep-all, sweep-warm, serve-mix, sweep-dist, or all of them")
	seedFlag := flag.Uint64("seed", 1, "workload seed (1 is the default seed; 1009 is held out from tuning)")
	secondsFlag := flag.Int("seconds", 12, "length of the measured phase, in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	binFlag := flag.String("bin", ".bench_build/bin", "directory holding the ignite-bench and ignite-serve binaries")
	workFlag := flag.String("work", ".bench_build", "directory for scratch stores, result files and traces")
	spreadFlag := flag.Bool("spread", false, "print the median and quartile spread of the result files given as arguments; refuses files from different hosts")
	recordFlag := flag.String("record-digests", "", "recompute the stored output digests for these seeds (e.g. 0-20,1009) into perfbench/digests.json")
	flag.Parse()

	if *spreadFlag {
		os.Exit(spread(flag.Args()))
	}
	if *recordFlag != "" {
		if err := recordDigests(*recordFlag, *secondsFlag, "perfbench/digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *workloadFlag == "all" {
		os.Exit(runAll())
	}
	run, ok := workloads[*workloadFlag]
	if !ok || *secondsFlag < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (all, or one of %s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	stored, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch := filepath.Join(*workFlag, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	newRunner := func(traced bool) *runner {
		w := &runner{workload: *workloadFlag, seed: *seedFlag, seconds: time.Duration(*secondsFlag) * time.Second,
			traced: traced, bin: *binFlag, scratch: scratch, stored: stored, check: &checker{}, layer: map[string]metric{}}
		if traced {
			w.rec = newRecorder()
		}
		return w
	}
	pass := func(w *runner) {
		if err := run(w); err != nil {
			os.RemoveAll(scratch)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.workload, err)
			os.Exit(1)
		}
	}

	res := resultFile{Fingerprint: hostFingerprint(), Workload: *workloadFlag, Seed: *seedFlag,
		Seconds: *secondsFlag, Trace: *traceFlag}
	var passes []*runner
	if *traceFlag == 0 {
		w := newRunner(false)
		pass(w)
		passes = append(passes, w)
		res.Metrics = w.e.metrics()
	} else {
		base := newRunner(false)
		pass(base)
		w := newRunner(true)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass(w)
		runtime.ReadMemStats(&m1)
		passes = append(passes, base, w)
		w.set("go.alloc_mib", "MiB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), 1)
		w.set("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), 1)
		w.set("go.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1)
		key := "wall_s"
		if w.workload == "serve-mix" {
			key = "req_p50_ms"
		}
		untraced, traced := base.e.metrics()[key], w.e.metrics()[key]
		w.set("obs.trace_overhead_pct", "%", 100*(share(traced.Value, untraced.Value)-1), traced.N)
		res.Metrics = map[string]metric{}
		for _, d := range perLayer {
			m, ok := w.layer[d.Name]
			if !ok {
				m = metric{Unit: d.Unit}
			}
			res.Metrics[d.Name] = m
		}
		tracePath := filepath.Join(*workFlag, "traces", fmt.Sprintf("%s-seed%d.json", w.workload, w.seed))
		err := os.MkdirAll(filepath.Dir(tracePath), 0o755)
		if err == nil {
			err = w.rec.writeChrome(tracePath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		}
		printSelfTimes(w.rec)
		fmt.Printf("trace: %s\n", tracePath)
	}
	os.RemoveAll(scratch)

	for _, w := range passes {
		res.Attempted += w.e.attempted + w.check.done
		res.Failed += w.e.failed + w.check.failed
		res.Notes = append(res.Notes, w.check.notes...)
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	report(res, filepath.Join(*workFlag, "results"))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, with this run's
// other flags, and returns 1 if any of them failed.
func runAll() int {
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func kindNames() []string {
	var out []string
	for _, k := range sim.Kinds() {
		out = append(out, kindName(k))
	}
	return out
}

// report prints the metrics table, the fingerprint and the result line, and
// writes the result file into dir.
func report(res resultFile, dir string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	fmt.Printf("  %-36s %14.6g %-6s n=%d\n", "failed_share", share(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	for _, note := range res.Notes {
		fmt.Println("  check failed:", note)
	}
	fp, _ := json.Marshal(res.Fingerprint)
	fmt.Printf("fingerprint: %s\n", fp)

	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err == nil {
				fmt.Printf("result: %s\n", path)
			}
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[n] = value{v, m.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
}

// printSelfTimes prints, per span name, the summed self time of the traced
// pass: each span's duration minus the part its children cover.
func printSelfTimes(rec *recorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span:")
	for _, n := range names {
		fmt.Printf("  %-36s %12.3f ms\n", n, ms(self[n]))
	}
}
