// Command ignite-sim runs a single (function, configuration) simulation
// under the lukewarm protocol and prints detailed statistics, or reproduces
// the full experiment suite.
//
// Usage:
//
//	ignite-sim -fn Auth-G -config ignite
//	ignite-sim -fn Curr-N -config boomerang+jb -mode back-to-back
//	ignite-sim -show-config
//	ignite-sim -all -out results/           # machine-readable JSON per experiment
//	ignite-sim -all -progress               # narrate cell completions + ETA
//	ignite-sim -all -fail-policy continue   # degrade on cell failures, don't abort
//
// The IGNITE_FAULTS environment variable arms deterministic fault injection
// (see internal/faults) on both the suite and single-cell runs.
//
// Ctrl-C cancels cleanly: in-flight simulation cells drain, unstarted ones
// are skipped, and the command exits with status 130. Simulation failures
// exit 1; usage errors exit 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

func main() {
	fnFlag := flag.String("fn", "Auth-G", "function name (see -list)")
	cfgFlag := flag.String("config", "nl", "front-end configuration (nl, fdp, boomerang, jukebox, boomerang+jb, confluence, ignite, ignite+tage, confluence+ignite, ideal)")
	modeFlag := flag.String("mode", "interleaved", "inter-invocation mode: interleaved or back-to-back")
	listFlag := flag.Bool("list", false, "list functions and configurations")
	showCfg := flag.Bool("show-config", false, "print the simulated core parameters (Table 2)")
	allFlag := flag.Bool("all", false, "reproduce every registered experiment through one shared cell cache")
	outFlag := flag.String("out", "", "directory for machine-readable JSON result documents")
	progFlag := flag.Bool("progress", false, "report per-cell completion and ETA on stderr")
	policyFlag := flag.String("fail-policy", "fail-fast", "cell-failure policy for -all: fail-fast or continue")
	timeoutFlag := flag.Duration("cell-timeout", 0, "per-cell simulation deadline for -all (0 = none)")
	cyclesFlag := flag.Uint64("max-cycles", 0, "per-invocation engine cycle budget (0 = unlimited)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	plan, err := faults.FromEnvSpec(os.Getenv(faults.EnvVar))
	if err != nil {
		fatalCode(2, err)
	}

	switch {
	case *allFlag:
		policy, err := experiments.ParseFailurePolicy(*policyFlag)
		if err != nil {
			fatalCode(2, err)
		}
		runAll(ctx, allOptions{
			dir:      *outFlag,
			progress: *progFlag,
			policy:   policy,
			timeout:  *timeoutFlag,
			cycles:   *cyclesFlag,
			faults:   plan,
		})
	case *showCfg:
		res, err := experiments.Run(ctx, "tab2", experiments.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	case *listFlag:
		fmt.Println("functions:")
		for _, s := range workload.All() {
			fmt.Printf("  %-8s %-36s %s\n", s.Name, s.FullName, s.Lang)
		}
		fmt.Println("configurations:")
		for _, k := range sim.Kinds() {
			fmt.Printf("  %s\n", k)
		}
	default:
		runOne(*fnFlag, *cfgFlag, *modeFlag, *outFlag, *cyclesFlag, plan)
	}
}

// allOptions bundles the -all run's knobs.
type allOptions struct {
	dir      string
	progress bool
	policy   experiments.FailurePolicy
	timeout  time.Duration
	cycles   uint64
	faults   *faults.Plan
}

// runAll reproduces every experiment, optionally exporting one versioned
// JSON document per experiment into dir.
func runAll(ctx context.Context, ao allOptions) {
	opt := experiments.Options{
		Cache:         experiments.NewCellCache(),
		FailurePolicy: ao.policy,
		CellTimeout:   ao.timeout,
		MaxCycles:     ao.cycles,
		Faults:        ao.faults,
		Health:        new(obs.RunHealth),
	}
	var reporter *obs.ProgressReporter
	if ao.progress {
		reporter = obs.NewProgressReporter(os.Stderr)
		opt.Tracer = reporter
	}

	results, runErr := experiments.RunAll(ctx, nil, opt)
	failed := runErr != nil
	for _, res := range results {
		fmt.Println(res.Render())
		fmt.Println()
		if len(res.Failures) > 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %d degraded cell(s):\n", res.ID, len(res.Failures))
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "  %-12s %-16s %-8s %s\n", f.Workload, f.Config, f.Status, f.Err)
			}
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	if reporter != nil {
		cells, hits := reporter.Summary()
		fmt.Fprintf(os.Stderr, "%d cells (%d cache hits)\n", cells, hits)
	}
	if ao.dir != "" {
		man := opt.Manifest()
		man.Generated = time.Now().UTC().Format(time.RFC3339)
		for _, res := range results {
			path, err := res.Document(man).WriteFile(ao.dir, string(res.ID))
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	switch {
	case errors.Is(runErr, context.Canceled) || ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "ignite-sim: interrupted")
		os.Exit(130)
	case failed:
		os.Exit(1)
	}
}

// runOne simulates a single (function, configuration) cell and prints its
// statistics; with -out it also exports the cell's full metric snapshot.
func runOne(fn, cfgName, modeName, dir string, maxCycles uint64, plan *faults.Plan) {
	spec, err := workload.ByName(fn)
	if err != nil {
		fatalCode(2, err)
	}
	mode := lukewarm.Interleaved
	if modeName == "back-to-back" || modeName == "b2b" {
		mode = lukewarm.BackToBack
	}

	opts := []sim.Option{sim.WithFaults(plan)}
	if maxCycles > 0 {
		opts = append(opts, sim.WithMaxCycles(maxCycles))
	}
	setup, err := sim.New(spec, sim.Kind(cfgName), opts...)
	if err != nil {
		fatalCode(2, err)
	}
	res, err := setup.Run(mode)
	if err != nil {
		fatal(err)
	}

	st := res.CPIStack()
	fmt.Printf("%s / %s / %s\n", spec.Name, cfgName, mode)
	fmt.Printf("  instructions   %d (over %d measured invocations)\n", res.Instrs(), len(res.PerInvocation))
	fmt.Printf("  CPI            %.3f\n", res.CPI())
	fmt.Printf("    retiring     %.3f\n", st.Retiring)
	fmt.Printf("    fetch-bound  %.3f\n", st.Fetch)
	fmt.Printf("    bad-spec     %.3f\n", st.BadSpec)
	fmt.Printf("    backend      %.3f\n", st.Backend)
	fmt.Printf("  L1-I MPKI      %.2f (off-chip %.2f)\n", res.L1IMPKI(), res.OffChipMPKI())
	fmt.Printf("  BTB MPKI       %.2f\n", res.BTBMPKI())
	fmt.Printf("  CBP MPKI       %.2f (initial %.2f)\n", res.CBPMPKI(), res.InitialCBPMPKI())
	fmt.Printf("  BPU MPKI       %.2f\n", res.BPUMPKI())
	tr := res.MeanTraffic()
	fmt.Printf("  DRAM traffic   useful %d B, useless %d B, record %d B, replay %d B\n",
		tr.UsefulInstrBytes, tr.UselessInstrBytes, tr.RecordMetaBytes, tr.ReplayMetaBytes)
	if setup.Ignite != nil {
		fmt.Printf("  ignite         %v, %d records, %d B metadata\n",
			setup.Ignite.Regs().ReplayEnable, setup.Ignite.Recorder().Records(), setup.Ignite.MetadataUsed())
	}

	if dir != "" {
		reg := obs.NewRegistry()
		setup.RegisterMetrics(reg)
		res.RegisterMetrics(reg, nil)
		doc := obs.Document{
			SchemaVersion: obs.SchemaVersion,
			Kind:          obs.DocumentKind,
			ID:            fmt.Sprintf("run-%s-%s", spec.Name, cfgName),
			Title:         fmt.Sprintf("Single run: %s under %s (%s)", spec.Name, cfgName, mode),
			Cells: []obs.CellMetrics{{
				Workload: spec.Name,
				Config:   cfgName,
				Metrics:  reg.Snapshot().Values(),
			}},
			Manifest: obs.Manifest{
				Generated: time.Now().UTC().Format(time.RFC3339),
				Parallel:  1,
				Workloads: []obs.WorkloadManifest{{
					Name: spec.Name, Seed: spec.Gen.Seed, TargetInstr: spec.TargetInstr,
				}},
			},
		}
		path, err := doc.WriteFile(dir, doc.ID)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) { fatalCode(1, err) }
func fatalCode(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
