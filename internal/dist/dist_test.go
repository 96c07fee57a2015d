package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// TestMain doubles as the supervisor tests' worker entry point: the test
// binary, re-executed with IGNITE_DIST_TEST_WORKER set, becomes a real
// worker process (the `ignite-bench -worker` equivalent) instead of
// running the test suite.
func TestMain(m *testing.M) {
	if addr := os.Getenv("IGNITE_DIST_TEST_WORKER"); addr != "" {
		if err := RunWorker(context.Background(), addr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testWorkerCommand re-executes this test binary as a worker process via
// the TestMain hook.
func testWorkerCommand(t *testing.T) func(addr string) (*exec.Cmd, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(addr string) (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "IGNITE_DIST_TEST_WORKER="+addr)
		return cmd, nil
	}
}

// testOpts builds a two-workload experiment configuration small enough for
// unit tests (same shrink as the experiments package's chaos tests).
func testOpts(t *testing.T) experiments.Options {
	t.Helper()
	var specs []workload.Spec
	for _, name := range []string{"Fib-G", "Auth-G"} {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s.TargetInstr /= 8
		specs = append(specs, s)
	}
	return experiments.Options{Workloads: specs, Parallel: 2}
}

// startWorkers boots n in-process workers on httptest servers and returns
// their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker().Handler())
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

func docBytes(t *testing.T, res *experiments.Result, opt experiments.Options) []byte {
	t.Helper()
	man := opt.Manifest()
	man.GoVersion = ""
	data, err := res.Document(man).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistByteIdenticalToLocal is the tentpole's core promise: a sweep
// whose cells were computed by remote workers produces the exact same
// document — values, tables, per-cell metrics, manifest cache statistics —
// as the same sweep computed in process.
func TestDistByteIdenticalToLocal(t *testing.T) {
	optLocal := testOpts(t)
	optLocal.Cache = experiments.NewCellCache()
	resLocal, err := experiments.Run(context.Background(), "fig1", optLocal)
	if err != nil {
		t.Fatal(err)
	}
	docLocal := docBytes(t, resLocal, optLocal)

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: startWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	optDist := testOpts(t)
	optDist.Cache = experiments.NewCellCache()
	optDist.Cache.SetRemote(coord.Remote())
	resDist, err := experiments.Run(context.Background(), "fig1", optDist)
	if err != nil {
		t.Fatal(err)
	}
	docDist := docBytes(t, resDist, optDist)

	if !bytes.Equal(docLocal, docDist) {
		t.Error("distributed document differs from local run")
	}
	if tasks, _, _ := coord.Stats(); tasks != 4 {
		t.Errorf("coordinator completed %d tasks, want 4 (2 workloads x 2 configs)", tasks)
	}
}

// TestWorkerRejectsKeyMismatch pins the version-skew guard: a task whose
// coordinator-computed key disagrees with the worker's derivation must be
// refused with a permanent key-mismatch envelope, never computed.
func TestWorkerRejectsKeyMismatch(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	req := TaskRequest{
		SchemaVersion: SchemaVersion,
		Key:           "not-the-real-key",
		Workload:      spec,
		Config:        sim.KindNL,
		Mode:          lukewarm.Interleaved,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+PathTask, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Code != CodeKeyMismatch || env.Retryable {
		t.Errorf("envelope = %+v, want permanent %s", env, CodeKeyMismatch)
	}
}

// TestCoordinatorFailover points the coordinator at one dead address and
// one live worker: every cell must still complete (the dead worker's
// failures reroute, not fail, the sweep) and the failover/health metrics
// must record the reroutes.
func TestCoordinatorFailover(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	live := startWorkers(t, 1)[0]

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{dead, live}, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	opt := testOpts(t)
	opt.Cache = experiments.NewCellCache()
	opt.Cache.SetRemote(coord.Remote())
	res, err := experiments.Run(context.Background(), "fig1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Errorf("failures = %v, want none (failover should absorb the dead worker)", res.Failures)
	}

	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg)
	vals := reg.Snapshot().Values()
	deadHealth := vals["dist.worker_health{component=dist,worker="+dead+"}"]
	liveHealth := vals["dist.worker_health{component=dist,worker="+live+"}"]
	if deadHealth != 0 || liveHealth != 1 {
		t.Errorf("health gauges: dead=%v live=%v, want 0 and 1", deadHealth, liveHealth)
	}
	if vals["dist.worker_failures{component=dist}"] == 0 {
		t.Error("no worker failures recorded despite a dead worker")
	}
}

// TestCoordinatorStealing homes several tasks on worker 0 with worker 0
// serialized to one slot: worker 1's idle runner must steal from worker
// 0's queue instead of letting it serialize the sweep.
func TestCoordinatorStealing(t *testing.T) {
	addrs := startWorkers(t, 2)
	coord, err := NewCoordinator(CoordinatorOptions{Addrs: addrs, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	base, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	base.TargetInstr /= 8
	// Vary the instruction budget until six distinct cells all hash onto
	// worker 0 — the hot-queue shape stealing exists for.
	var specs []experiments.CellSpec
	for budget := base.TargetInstr; len(specs) < 6; budget++ {
		s := base
		s.TargetInstr = budget
		cs := experiments.CellSpec{Workload: s, Config: sim.KindNL, Mode: lukewarm.Interleaved}
		if coord.home(cs.Key()) == 0 {
			specs = append(specs, cs)
		}
	}

	remote := coord.Remote()
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, cs := range specs {
		wg.Add(1)
		go func(i int, cs experiments.CellSpec) {
			defer wg.Done()
			_, errs[i] = remote(context.Background(), cs, experiments.CellEnv{})
		}(i, cs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	tasks, steals, _ := coord.Stats()
	if tasks != uint64(len(specs)) {
		t.Errorf("tasks = %d, want %d", tasks, len(specs))
	}
	if steals == 0 {
		t.Error("no steals recorded: worker 1 idled while worker 0's queue was hot")
	}
}

// TestDrainingWorkerShedsRetryable: a draining worker refuses new tasks
// with a retryable shutting-down envelope, which the coordinator surfaces
// as a transient error (so the scheduler retries elsewhere).
func TestDrainingWorkerShedsRetryable(t *testing.T) {
	w := NewWorker()
	w.Drain() // no in-flight work: flips to draining immediately
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{addr}, Slots: 1, MaxDispatchRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, rerr := coord.Remote()(context.Background(), cs, experiments.CellEnv{})
	var we *WorkerError
	if !errors.As(rerr, &we) || !faults.IsTransient(rerr) {
		t.Fatalf("draining worker error = %v, want transient *WorkerError", rerr)
	}

	// Health endpoint reports the drain.
	resp, err := http.Get(srv.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}
}

// TestParseTaskRequestStrict pins the wire API's strictness: unknown
// fields, foreign schema versions and missing identities are rejected.
func TestParseTaskRequestStrict(t *testing.T) {
	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	good := TaskRequest{
		SchemaVersion: SchemaVersion,
		Key:           "k",
		Workload:      spec,
		Config:        sim.KindNL,
	}
	body, _ := json.Marshal(good)
	if _, env := ParseTaskRequest(body); env != nil {
		t.Fatalf("valid request rejected: %v", env)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"unknown field": func(b []byte) []byte {
			return append(b[:len(b)-1], []byte(`,"surprise":1}`)...)
		},
		"wrong schema": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"schemaVersion":1`), []byte(`"schemaVersion":9`), 1)
		},
		"missing key": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"key":"k"`), []byte(`"key":""`), 1)
		},
	} {
		if _, env := ParseTaskRequest(mangle(body)); env == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// cellsHomedOn finds n distinct cells whose home queue is worker `home` on
// coord, by varying the instruction budget of a shrunk Fib-G.
func cellsHomedOn(t *testing.T, coord *Coordinator, home, n int) []experiments.CellSpec {
	t.Helper()
	base, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	base.TargetInstr /= 8
	var specs []experiments.CellSpec
	for budget := base.TargetInstr; len(specs) < n; budget++ {
		s := base
		s.TargetInstr = budget
		cs := experiments.CellSpec{Workload: s, Config: sim.KindNL, Mode: lukewarm.Interleaved}
		if coord.home(cs.Key()) == home {
			specs = append(specs, cs)
		}
	}
	return specs
}

// payloadBytes canonicalizes a cell payload for byte-identity checks.
func payloadBytes(t *testing.T, p experiments.CellPayload) []byte {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTaskCancelNotWorkerFault pins error attribution: canceling a cell's
// own context mid-call must end that task only — the worker is not blamed
// (dist.worker_failures stays 0), no failover slot burns, and the worker
// stays admitted.
func TestTaskCancelNotWorkerFault(t *testing.T) {
	// The "worker" hangs every request until the client gives up — the
	// shape of a long cell, not a broken worker. The stop channel unblocks
	// lingering handlers at cleanup so the server can close.
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer srv.Close()
	defer close(stop)
	addr := strings.TrimPrefix(srv.URL, "http://")

	coord, err := NewCoordinator(CoordinatorOptions{Addrs: []string{addr}, Slots: 1, DisableProbing: true})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, rerr := coord.Remote()(ctx, cs, experiments.CellEnv{})
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("canceled cell returned %v, want context.Canceled", rerr)
	}
	// The runner may still be classifying its canceled attempt; give it a
	// beat before reading counters.
	deadline := time.Now().Add(2 * time.Second)
	for coord.Health().Failures == 0 && time.Now().Before(deadline) {
		if coord.WorkersHealthy() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := coord.Health(); h.Failures != 0 {
		t.Errorf("dist.worker_failures = %d after a task-owned cancel, want 0", h.Failures)
	}
	if !coord.WorkersHealthy() {
		t.Error("worker lost admission over a task-owned cancel")
	}
}

// TestWorkerDrainShedsInFlightFailover is the SIGTERM-drain story at the
// coordinator's level: a request outstanding against a worker when its
// drain begins is shed with a retryable envelope, the coordinator fails
// over, and every cell still completes byte-identical to a local compute.
func TestWorkerDrainShedsInFlightFailover(t *testing.T) {
	// Hold the first task attempt on the wire — on whichever worker
	// receives it, since idle B may steal it from A's queue — so the drain
	// demonstrably begins while a request is outstanding.
	workers := []*Worker{NewWorker(), NewWorker()}
	inflight := make(chan int, 1)
	release := make(chan struct{})
	var held atomic.Bool
	hold := func(i int) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathTask && held.CompareAndSwap(false, true) {
				inflight <- i
				<-release
			}
			workers[i].Handler().ServeHTTP(rw, r)
		})
	}
	srvA := httptest.NewServer(hold(0))
	defer srvA.Close()
	srvB := httptest.NewServer(hold(1))
	defer srvB.Close()
	addrA := strings.TrimPrefix(srvA.URL, "http://")
	addrB := strings.TrimPrefix(srvB.URL, "http://")

	coord, err := NewCoordinator(CoordinatorOptions{
		Addrs: []string{addrA, addrB}, Slots: 1,
		DisableProbing: true, DisableHedging: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	specs := cellsHomedOn(t, coord, 0, 2)
	remote := coord.Remote()
	type out struct {
		p   experiments.CellPayload
		err error
	}
	res1 := make(chan out, 1)
	go func() {
		p, err := remote(context.Background(), specs[0], experiments.CellEnv{})
		res1 <- out{p, err}
	}()
	drained := <-inflight // the first task is outstanding against this worker
	workers[drained].BeginDrain()
	close(release) // it now answers with the retryable shutting-down shed

	r1 := <-res1
	if r1.err != nil {
		t.Fatalf("cell 0 failed despite failover: %v", r1.err)
	}
	p2, err := remote(context.Background(), specs[1], experiments.CellEnv{})
	if err != nil {
		t.Fatalf("cell 1 failed despite failover: %v", err)
	}

	// Byte-identical to a local compute of the same cells.
	local := experiments.NewCellCache()
	for i, p := range []experiments.CellPayload{r1.p, p2} {
		served, _, err := local.Invoke(specs[i], experiments.CellEnv{})
		if err != nil {
			t.Fatal(err)
		}
		want := payloadBytes(t, experiments.CellPayload{Res: served.Res, Metrics: served.Metrics})
		if !bytes.Equal(payloadBytes(t, p), want) {
			t.Errorf("cell %d: failover payload differs from local compute", i)
		}
	}
	// Cell 0 deterministically fails over (it was on the drained worker's
	// wire when the drain began). Cell 1 may reach the live worker first,
	// so only one failover is guaranteed.
	if _, _, failovers := coord.Stats(); failovers < 1 {
		t.Errorf("failovers = %d, want >= 1 (the in-flight cell was shed by the draining worker)", failovers)
	}
}

// TestHedgedDispatch: a task stuck on a slow worker past the hedge delay
// is duplicated on the other worker; the fast copy wins, the slow attempt
// is canceled without blaming anyone.
func TestHedgedDispatch(t *testing.T) {
	// The first task attempt — on whichever worker receives it — stalls;
	// every later attempt is served normally. The hedge therefore always
	// lands on a responsive worker and must win.
	var slowed atomic.Bool
	stop := make(chan struct{})
	slowify := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathTask && slowed.CompareAndSwap(false, true) {
				select {
				case <-time.After(5 * time.Second):
				case <-r.Context().Done():
					return
				case <-stop:
					return
				}
			}
			h.ServeHTTP(rw, r)
		})
	}
	srvA := httptest.NewServer(slowify(NewWorker().Handler()))
	defer srvA.Close()
	srvB := httptest.NewServer(slowify(NewWorker().Handler()))
	defer srvB.Close()
	defer close(stop)

	coord, err := NewCoordinator(CoordinatorOptions{
		Addrs: []string{
			strings.TrimPrefix(srvA.URL, "http://"),
			strings.TrimPrefix(srvB.URL, "http://"),
		},
		Slots:          1,
		HedgeFallback:  50 * time.Millisecond,
		DisableProbing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cs := cellsHomedOn(t, coord, 0, 1)[0]
	start := time.Now()
	if _, err := coord.Remote()(context.Background(), cs, experiments.CellEnv{}); err != nil {
		t.Fatalf("hedged cell failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Errorf("cell took %v: the hedge never rescued it from the slow worker", elapsed)
	}
	h := coord.Health()
	if h.Hedges < 1 || h.HedgeWins < 1 {
		t.Errorf("hedges = %d, wins = %d, want both >= 1", h.Hedges, h.HedgeWins)
	}
	if h.Failures != 0 {
		t.Errorf("dist.worker_failures = %d: a canceled hedge loser was blamed on its worker", h.Failures)
	}
}

// TestProberReadmitsRestartedWorker: a quarantined worker is re-admitted
// by the background prober — without sacrificing a task — once a
// replacement process answers /v1/health on the same address.
func TestProberReadmitsRestartedWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the worker is "down"

	coord, err := NewCoordinator(CoordinatorOptions{
		Addrs: []string{addr}, Slots: 1,
		MinSamples:        1,
		ProbeInterval:     20 * time.Millisecond,
		ProbeBackoffCap:   200 * time.Millisecond,
		ProbeTimeout:      500 * time.Millisecond,
		DisableHedging:    true,
		MaxDispatchRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec, err := workload.ByName("Fib-G")
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetInstr /= 8
	cs := experiments.CellSpec{Workload: spec, Config: sim.KindNL, Mode: lukewarm.Interleaved}
	if _, err := coord.Remote()(context.Background(), cs, experiments.CellEnv{}); err == nil {
		t.Fatal("cell against a dead fleet succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.Health().Quarantines == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if coord.Health().Quarantines == 0 {
		t.Fatal("dead worker was never quarantined")
	}

	// The worker "restarts" on its old address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewWorker().Handler()}
	go srv.Serve(ln2)
	defer srv.Close()

	for !coord.WorkersHealthy() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !coord.WorkersHealthy() {
		t.Fatal("restarted worker was never re-admitted by the prober")
	}
	h := coord.Health()
	if h.Readmits < 1 || h.Probes < 1 {
		t.Errorf("readmits = %d, probes = %d, want both >= 1", h.Readmits, h.Probes)
	}
	if _, err := coord.Remote()(context.Background(), cs, experiments.CellEnv{}); err != nil {
		t.Errorf("cell after re-admission failed: %v", err)
	}
}

// TestSupervisorRestartsWorker SIGKILLs a supervised worker process and
// expects a replacement serving /v1/health on the same address.
func TestSupervisorRestartsWorker(t *testing.T) {
	s, err := StartSupervisor(SupervisorOptions{
		Workers:        1,
		Command:        testWorkerCommand(t),
		RestartBackoff: 20 * time.Millisecond,
		Log:            func(format string, args ...any) { t.Logf("supervisor: "+format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addrs()[0]

	healthy := func() bool {
		resp, err := http.Get("http://" + addr + PathHealth)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	if !healthy() {
		t.Fatal("fresh worker does not answer health")
	}
	if err := s.Kill(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !healthy() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !healthy() {
		t.Fatal("killed worker never came back on its address")
	}
	if s.Restarts() < 1 {
		t.Errorf("restarts = %d, want >= 1", s.Restarts())
	}
}
