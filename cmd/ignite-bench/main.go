// Command ignite-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ignite-bench -exp all                # every experiment, all 20 functions
//	ignite-bench -exp fig8,fig9a         # selected experiments
//	ignite-bench -exp fig3 -workloads Auth-G,Curr-N -parallel 4
//	ignite-bench -exp all -json          # also write BENCH.json
//	ignite-bench -exp fig1 -out results/ # versioned JSON document per experiment
//	ignite-bench -exp all -progress      # narrate cell completions + ETA
//	ignite-bench -exp all -fail-policy continue -out results/
//	ignite-bench -exp all -store cells -out results/  # rerun as is to resume
//
// With -fail-policy continue, a failing simulation cell degrades its figure
// (the cell is reported, healthy cells complete) instead of aborting the
// whole reproduction. With -store, every computed cell is persisted to a
// crash-safe content-addressed store, so rerunning the same command after an
// interrupt serves the finished cells from disk and computes only the rest.
// The IGNITE_FAULTS environment variable arms deterministic fault injection
// (see internal/faults) for chaos testing these paths.
//
// Ctrl-C cancels cleanly: in-flight simulation cells drain, unstarted ones
// are skipped, and the command exits with status 130. Simulation failures
// exit 1; usage errors exit 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ignite/internal/cfgcli"
	"ignite/internal/dist"
	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/obs"
	"ignite/internal/store"
	"ignite/internal/workload"
)

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// expReport is the per-experiment entry of BENCH.json.
type expReport struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	WallClockNs int64  `json:"wallClockNs"`
	NsPerOp     int64  `json:"nsPerOp"` // identical to WallClockNs: one op = one experiment run
	AllocsPerOp uint64 `json:"allocsPerOp"`
	BytesPerOp  uint64 `json:"bytesPerOp"`
}

// benchReport is the BENCH.json document.
type benchReport struct {
	Generated   string      `json:"generated"`
	Note        string      `json:"note,omitempty"`
	GoVersion   string      `json:"goVersion"`
	Workloads   int         `json:"workloads"`
	Parallel    int         `json:"parallel"`
	TotalNs     int64       `json:"totalNs"`
	CacheCells  int         `json:"cacheCells"`
	CacheHits   int         `json:"cacheHits"`
	Experiments []expReport `json:"experiments"`
}

func idList() string {
	var b strings.Builder
	for i, id := range experiments.IDs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(id))
	}
	return b.String()
}

func main() {
	cf := cfgcli.New()
	cf.BindCore(flag.CommandLine)
	cf.BindMatrix(flag.CommandLine)
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs or 'all' (ids: "+idList()+")")
	listFlag := flag.Bool("list", false, "list experiments and workloads, then exit")
	workerFlag := flag.Bool("worker", false, "run as a distributed-sweep worker: serve cell tasks on -listen until interrupted")
	listenFlag := flag.String("listen", "127.0.0.1:0", "worker listen address (with -worker; :0 picks a free port and prints it)")
	workersFlag := flag.Int("workers", 0, "spawn N supervised local worker processes and distribute cells across them (alias of -spawn-workers)")
	spawnWorkersFlag := flag.Int("spawn-workers", 0, "spawn N supervised local worker processes: crashed workers restart with capped backoff on stable addresses")
	workerAddrsFlag := flag.String("worker-addrs", "", "comma-separated addresses of already-running workers (alternative to -workers)")
	storeFlag := flag.String("store", "", "directory of the persistent content-addressed cell store (created if missing)")
	jsonFlag := flag.Bool("json", false, "write per-experiment wall-clock and allocation metrics to BENCH.json")
	benchoutFlag := flag.String("benchout", "", "write the benchmark report to this path (convention: BENCH_<n>.json, a committed trajectory of benchmark runs)")
	noteFlag := flag.String("benchnote", "", "free-form annotation embedded in the benchmark report (e.g. before/after hot-path numbers)")
	cpuFlag := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this path")
	outFlag := flag.String("out", "", "directory for machine-readable JSON result documents")
	progFlag := flag.Bool("progress", false, "report per-cell completion and ETA on stderr")
	flag.Parse()

	ctx, stop := cfgcli.SignalContext()
	defer stop()

	if *workerFlag {
		// Worker mode: no experiment selection, no documents — just serve
		// cell tasks until the coordinator (or the terminal) interrupts us.
		if err := dist.RunWorker(ctx, *listenFlag); err != nil {
			cfgcli.Exit("ignite-bench", ctx, err)
		}
		return
	}

	if *listFlag {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-6s %s\n", id, experiments.Title(id))
		}
		fmt.Println("workloads:", strings.Join(workload.Names(), " "))
		return
	}

	// One shared cell cache across the selected experiments: cells that
	// recur (the nl baseline appears in five figures) are simulated once.
	opt, err := cf.Options()
	if err != nil {
		cfgcli.Exit("ignite-bench", nil, err)
	}
	policy := opt.FailurePolicy
	var reporter *obs.ProgressReporter
	if *progFlag {
		reporter = obs.NewProgressReporter(os.Stderr)
		opt.Tracer = reporter
	}

	// Persistent content-addressed cell store: warm records serve as pure
	// I/O, fresh cells are persisted, and the set is sealed under a Merkle
	// manifest on exit so the next run can prove nothing rotted in between.
	var cellStore *store.Store
	var storeStats *experiments.StoreStats
	if *storeFlag != "" {
		cellStore, err = store.Open(*storeFlag)
		if err != nil {
			cfgcli.Exit("ignite-bench", nil, err)
		}
		if merr := cellStore.ManifestErr(); merr != nil {
			fmt.Fprintf(os.Stderr, "ignite-bench: %v (store records will be recomputed and resealed)\n", merr)
		}
		storeStats = &experiments.StoreStats{}
		experiments.BindStore(opt.Cache, cellStore, storeStats)
	}

	// Distributed sweep: shard fresh cells across worker processes. Cells
	// already in the store never reach the wire — the backing is consulted
	// first — so a warm rerun with -workers is pure local I/O.
	spawnN := *spawnWorkersFlag
	if *workersFlag > 0 {
		if spawnN > 0 {
			cfgcli.Exit("ignite-bench", nil, cfgcli.Usage("ignite-bench: -workers and -spawn-workers are aliases; set one"))
		}
		spawnN = *workersFlag
	}
	var coord *dist.Coordinator
	var super *dist.Supervisor
	if spawnN > 0 || *workerAddrsFlag != "" {
		addrs := splitList(*workerAddrsFlag)
		if spawnN > 0 && len(addrs) > 0 {
			cfgcli.Exit("ignite-bench", nil, cfgcli.Usage("ignite-bench: -spawn-workers and -worker-addrs are mutually exclusive"))
		}
		if len(addrs) == 0 {
			super, err = dist.StartSupervisor(dist.SupervisorOptions{Workers: spawnN})
			if err != nil {
				cfgcli.Exit("ignite-bench", nil, err)
			}
			defer super.Close()
			addrs = super.Addrs()
			fmt.Fprintf(os.Stderr, "spawned %d supervised worker(s): %s\n", len(addrs), strings.Join(addrs, " "))
		}
		// The coordinator's wire inherits the network chaos plan (conn-reset,
		// slow-net, truncated-body, garbage-json rules): a plan without net
		// rules leaves the transport unwrapped.
		client := &http.Client{Transport: faults.NewTransport(opt.Faults, nil)}
		coord, err = dist.NewCoordinator(dist.CoordinatorOptions{Addrs: addrs, Client: client})
		if err != nil {
			cfgcli.Exit("ignite-bench", nil, err)
		}
		defer coord.Close()
		opt.Cache.SetRemote(coord.Remote())
	}

	var ids []experiments.ID
	if *expFlag == "all" {
		ids = experiments.IDs()
	} else {
		for _, raw := range strings.Split(*expFlag, ",") {
			id := experiments.ID(strings.TrimSpace(raw))
			if _, ok := experiments.Lookup(id); !ok {
				fmt.Fprintln(os.Stderr, &experiments.UnknownIDError{ID: id, Valid: experiments.IDs()})
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Note:      *noteFlag,
		GoVersion: runtime.Version(),
		Workloads: len(opt.Workloads),
		Parallel:  cf.Parallel,
	}
	if report.Workloads == 0 {
		report.Workloads = len(workload.All())
	}
	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	totalStart := time.Now()
	var mem runtime.MemStats
	var results []*experiments.Result
	failed := false
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		runtime.ReadMemStats(&mem)
		mallocs, bytes := mem.Mallocs, mem.TotalAlloc
		start := time.Now()
		res, err := experiments.Run(ctx, id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			if policy == experiments.ContinueOnError && !errors.Is(err, context.Canceled) {
				continue
			}
			break
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&mem)
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", id, elapsed.Seconds())
		printFailures(res)
		if len(res.Failures) > 0 {
			failed = true
		}
		results = append(results, res)
		report.Experiments = append(report.Experiments, expReport{
			ID:          string(id),
			Title:       experiments.Title(id),
			WallClockNs: elapsed.Nanoseconds(),
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: mem.Mallocs - mallocs,
			BytesPerOp:  mem.TotalAlloc - bytes,
		})
	}
	if *cpuFlag != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuFlag)
	}
	report.TotalNs = time.Since(totalStart).Nanoseconds()
	report.CacheCells, report.CacheHits = opt.Cache.Stats()
	if reporter != nil {
		cells, hits := reporter.Summary()
		fmt.Fprintf(os.Stderr, "%d cells (%d cache hits)\n", cells, hits)
	}
	printHealth(opt.Health)
	if coord != nil {
		tasks, steals, failovers := coord.Stats()
		fmt.Fprintf(os.Stderr, "dist: %d task(s) completed remotely, %d steal(s), %d failover(s)\n",
			tasks, steals, failovers)
		h := coord.Health()
		fmt.Fprintf(os.Stderr, "dist: %d worker failure(s), %d quarantine(s), %d readmit(s), %d probe(s), %d hedge(s) (%d won)\n",
			h.Failures, h.Quarantines, h.Readmits, h.Probes, h.Hedges, h.HedgeWins)
	}
	if super != nil {
		fmt.Fprintf(os.Stderr, "dist: %d worker restart(s)\n", super.Restarts())
	}
	if cellStore != nil {
		fmt.Fprintf(os.Stderr, "store: %d hit(s), %d miss(es), %d save(s), %d corruption(s) detected\n",
			storeStats.Hits.Value(), storeStats.Misses.Value(),
			storeStats.Saves.Value(), storeStats.Corrupt.Value())
		if root, n, err := cellStore.Seal(); err != nil {
			fmt.Fprintf(os.Stderr, "ignite-bench: seal store: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "store: sealed %d record(s), merkle root %s\n", n, root)
		}
	}

	if *outFlag != "" {
		man := opt.Manifest()
		man.Generated = report.Generated
		for _, res := range results {
			path, err := res.Document(man).WriteFile(*outFlag, string(res.ID))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	benchPaths := make([]string, 0, 2)
	if *jsonFlag {
		benchPaths = append(benchPaths, "BENCH.json")
	}
	if *benchoutFlag != "" {
		benchPaths = append(benchPaths, *benchoutFlag)
	}
	if len(benchPaths) > 0 {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, path := range benchPaths {
			if err := obs.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d experiments, %d unique cells, %d cache hits)\n",
				path, len(report.Experiments), report.CacheCells, report.CacheHits)
		}
	}

	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "ignite-bench: interrupted")
		os.Exit(130)
	case failed:
		os.Exit(1)
	}
}

// printFailures renders a degraded experiment's per-cell failure table.
func printFailures(res *experiments.Result) {
	if len(res.Failures) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d degraded cell(s):\n", res.ID, len(res.Failures))
	fmt.Fprintf(os.Stderr, "  %-12s %-16s %-8s %-8s %s\n",
		"workload", "config", "status", "attempts", "error")
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "  %-12s %-16s %-8s %-8d %s\n",
			f.Workload, f.Config, f.Status, f.Attempts, f.Err)
	}
}

// printHealth summarizes the run-health counters when anything degraded.
func printHealth(h *obs.RunHealth) {
	p, r, d := h.Panics.Load(), h.Retries.Load(), h.Deadlines.Load()
	f, s := h.Failed.Load(), h.Skipped.Load()
	if p+r+d+f+s == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"run health: %d panic(s) recovered, %d retry(ies), %d deadline hit(s), %d cell(s) failed, %d skipped\n",
		p, r, d, f, s)
}
