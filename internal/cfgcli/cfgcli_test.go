package cfgcli

import (
	"errors"
	"flag"
	"testing"

	"ignite/internal/experiments"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	f := New()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.BindCore(fs)
	f.BindMatrix(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOptionsFromFlags(t *testing.T) {
	f := parse(t, "-parallel", "3", "-workloads", "Auth-G, Curr-N", "-target-instr", "5000",
		"-fail-policy", "continue", "-retries", "-1", "-checks")
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Parallel != 3 || opt.Retries != -1 || !opt.Checks {
		t.Errorf("options = %+v", opt)
	}
	if opt.FailurePolicy != experiments.ContinueOnError {
		t.Errorf("policy = %v", opt.FailurePolicy)
	}
	if len(opt.Workloads) != 2 || opt.Workloads[0].Name != "Auth-G" || opt.Workloads[1].TargetInstr != 5000 {
		t.Errorf("workloads = %+v", opt.Workloads)
	}
	if opt.Cache == nil || opt.Health == nil {
		t.Error("cache/health not installed")
	}
}

func TestUsageErrors(t *testing.T) {
	var ue *UsageError
	if _, err := parse(t, "-workloads", "NoSuchFn").Options(); !errors.As(err, &ue) {
		t.Errorf("unknown workload: %v", err)
	}
	if _, err := parse(t, "-fail-policy", "shrug").Options(); !errors.As(err, &ue) {
		t.Errorf("unknown policy: %v", err)
	}
}

func TestTargetInstrWithoutWorkloadsCoversAll(t *testing.T) {
	specs, err := parse(t, "-target-instr", "9000").WorkloadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("override produced no specs")
	}
	for _, s := range specs {
		if s.TargetInstr != 9000 {
			t.Errorf("%s budget = %d", s.Name, s.TargetInstr)
		}
	}
}
