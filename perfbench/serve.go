package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ignite/internal/experiments"
	"ignite/internal/fleet/population"
	"ignite/internal/serve"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

const (
	// serveBudget is the server's -target-instr: small cells, so a first
	// request costs tens of milliseconds.
	serveBudget = 20000
	// servePopulation is the size of the sampled population served.
	servePopulation = 1000
	// serveStarts is how many times set-up starts a fresh server; the last
	// one serves the measured schedule.
	serveStarts = 5
	// requestTimeout bounds one request; a request past it is a failure.
	requestTimeout = 10 * time.Second
	// crossChecks is how many served cells are recomputed in-process.
	crossChecks = 4
)

// serveSchedule is the serve-mix traffic: an open-loop Poisson schedule at
// one fixed rate in which about 3% of requests are the first for a cell.
var serveSchedule = scheduleParams{Rate: 200, FirstShare: 0.03, ZipfS: 1.1}

// server is one ignite-serve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when stderr reaches EOF
}

// startServer launches ignite-serve on a loopback port and waits until
// /v1/catalog answers.
func (w *runner) startServer(popSeed uint64) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-target-instr", strconv.Itoa(serveBudget),
		"-population", fmt.Sprintf("%d,%d", popSeed, servePopulation)}
	if w.traced {
		args = append(args, "-checks")
	}
	s := &server{cmd: exec.Command(filepath.Join(w.bin, "ignite-serve"), args...), drained: make(chan struct{})}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ignite-serve: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ignite-serve: listening on "); ok {
				select {
				case addrc <- a:
				default: // only the first address counts
				}
			}
		}
		close(addrc)
	}()
	a, ok := <-addrc
	if !ok {
		s.stop()
		return nil, fmt.Errorf("ignite-serve exited before listening")
	}
	s.addr = a
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + s.addr + serve.PathCatalog)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ignite-serve at %s: catalog did not answer", s.addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.drained
	return s.cmd.Wait()
}

// scrapeMetrics reads the server's /metrics counters, summed by name.
func (s *server) scrapeMetrics() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.addr + serve.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	doc, err := serve.DecodeMetrics(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, smp := range doc.Samples {
		name, _, _ := strings.Cut(smp.Key, "{")
		out[name] += smp.Value
	}
	return out, nil
}

// outcome is what the load generator saw for one scheduled request.
type outcome struct {
	late, latency time.Duration // send time and completion, from the due time
	ok            bool
	cached        bool
	result        json.RawMessage
}

// sendSchedule replays the schedule open-loop from one process with at
// most nproc senders and connections. Each request is timed from when it
// was due, so a stalled sender charges the wait to the requests behind it.
func sendSchedule(addr string, sched schedule, rec *recorder) ([]outcome, time.Duration) {
	senders := runtime.NumCPU()
	client := &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
		},
	}
	defer client.CloseIdleConnections()
	bodies := make([][]byte, len(sched.Cells))
	for i, c := range sched.Cells {
		bodies[i], _ = json.Marshal(serve.InvokeRequest{SchemaVersion: serve.SchemaVersion, Function: c.Function, Config: c.Config})
	}
	url := "http://" + addr + serve.PathInvoke
	out := make([]outcome, len(sched.Reqs))
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched.Reqs) {
					return
				}
				r := sched.Reqs[i]
				due := start.Add(r.Due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				o := &out[i]
				o.late = sent.Sub(due)
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[r.Cell]))
				if err == nil {
					var body struct {
						Cached bool            `json:"cached"`
						Result json.RawMessage `json:"result"`
					}
					data, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(data, &body) == nil {
						o.ok, o.cached, o.result = true, body.Cached, body.Result
					}
				}
				end := time.Now()
				o.latency = end.Sub(due)
				name := "request"
				switch {
				case !o.ok:
					name = "request.failed"
				case o.cached:
					name = "request.hot"
				case r.First:
					name = "request.first"
				}
				rec.add(name, fmt.Sprintf("req-%d", i), -1, sent, end)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// cellSpec resolves a schedule cell the way the server does.
func cellSpec(c serveCell, pop map[string]workload.Spec) (experiments.CellSpec, error) {
	spec, err := workload.ByName(c.Function)
	if err != nil {
		var ok bool
		if spec, ok = pop[c.Function]; !ok {
			return experiments.CellSpec{}, err
		}
	}
	spec.TargetInstr = serveBudget
	kind, env := serve.ParseKind(c.Config)
	if env != nil {
		return experiments.CellSpec{}, env
	}
	mode, env := serve.ParseMode("")
	if env != nil {
		return experiments.CellSpec{}, env
	}
	return experiments.CellSpec{Workload: spec, Config: kind, Mode: mode}, nil
}

// servedResult computes a cell in-process and encodes its result the way
// the server does.
func servedResult(cc *experiments.CellCache, cs experiments.CellSpec, checks bool) ([]byte, error) {
	c, _, err := cc.Invoke(cs, experiments.CellEnv{Checks: checks})
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.ResultFrom(c.Res))
}

// serveMix: a fresh ignite-serve process with a sampled population, driven
// by an open-loop schedule in which most requests repeat a served cell.
func serveMix(w *runner) error {
	pop, names, err := popSpecs(w.seed)
	if err != nil {
		return err
	}
	sched := makeServeSchedule(w.seed, names, w.seconds)

	var srv *server
	for i := 0; i < serveStarts; i++ {
		t0 := time.Now()
		srv, err = w.startServer(w.seed)
		if err != nil {
			return err
		}
		w.e.setup = append(w.e.setup, time.Since(t0).Seconds())
		if i < serveStarts-1 {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop ignite-serve: %w", err)
			}
		}
	}
	fail := func(err error) error {
		srv.stop()
		return err
	}
	pid := srv.cmd.Process.Pid
	m0, err := srv.scrapeMetrics()
	if err != nil {
		return fail(err)
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return fail(err)
	}
	outs, wall := sendSchedule(srv.addr, sched, w.rec)
	cpu1, err := procCPU(pid)
	if err != nil {
		return fail(err)
	}
	peak, err := procPeakRSS(pid)
	if err != nil {
		return fail(err)
	}
	m1, err := srv.scrapeMetrics()
	if err != nil {
		return fail(err)
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("ignite-serve did not drain cleanly: %w", err)
	}
	w.e.wall = append(w.e.wall, wall.Seconds())
	w.e.cpu = append(w.e.cpu, (cpu1 - cpu0).Seconds())
	w.e.peak = peak

	limit := sloLimit[w.workload]
	var all, hot, late Samples
	served := map[string][]byte{}
	for i, o := range outs {
		r := sched.Reqs[i]
		w.e.attempted++
		late = append(late, ms(o.late))
		if !o.ok {
			w.e.failed++
			continue
		}
		all = append(all, ms(o.latency))
		if o.latency <= limit {
			w.e.sloOK++
		}
		if r.First {
			w.e.cold = append(w.e.cold, ms(o.latency))
		}
		if o.cached {
			hot = append(hot, ms(o.latency))
		}
		c := sched.Cells[r.Cell]
		key := c.Function + "|" + c.Config
		if prev, ok := served[key]; ok {
			w.check.expect("repeat of "+key+" equals its first result", string(o.result), string(prev))
		} else {
			served[key] = o.result
		}
	}
	w.e.sloTotal = len(outs)
	w.e.req = all
	w.check.stored(w.stored, w.workload, digestKey(w.workload, w.seed, int(w.seconds/time.Second)), resultDigest(served))

	// Cross-check a sample of served cells against the library.
	cc := experiments.NewCellCache()
	for i := 0; i < crossChecks && i < len(sched.Cells); i++ {
		c := sched.Cells[i*len(sched.Cells)/crossChecks]
		cs, err := cellSpec(c, pop)
		if err != nil {
			return err
		}
		want, err := servedResult(cc, cs, false)
		if err != nil {
			return err
		}
		w.check.expect("served "+c.Function+"|"+c.Config+" equals CellCache.Invoke", string(served[c.Function+"|"+c.Config]), string(want))
	}

	if !w.traced {
		return nil
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }
	reqs := delta("serve.requests")
	w.set("serve.requests", "count", reqs, 1)
	w.set("serve.fast_path_share", "ratio", share(delta("serve.fast_path_hits"), reqs), int(reqs))
	w.set("serve.batches", "count", delta("serve.batches"), 1)
	w.set("serve.batch_size_mean", "ratio", share(delta("serve.batched_requests"), delta("serve.batches")), int(delta("serve.batches")))
	w.set("serve.shed", "count", delta("serve.shed"), 1)
	w.set("serve.hot_req_p50_ms", "ms", hot.Median(), hot.N())
	if p99, err := all.Percentile(99); err == nil {
		w.set("serve.req_p99_ms", "ms", p99, all.N())
	}
	if p99, err := late.Percentile(99); err == nil {
		w.set("loadgen.late_p99_ms", "ms", p99, late.N())
	}
	// Layer walk of the cold cells: program generation and a fresh
	// CellCache.Invoke per cell, in-process.
	walk := w.rec.begin("layer-walk", "", -1)
	var build, cell Samples
	fresh := experiments.NewCellCache()
	for _, c := range sched.Cells {
		cs, err := cellSpec(c, pop)
		if err != nil {
			return err
		}
		id := c.Function + "/" + c.Config
		sp := w.rec.begin("cell", id, walk)
		build = append(build, ms(w.rec.timed("workload.Build", id, sp, func() { _, _, err = cs.Workload.Build() })))
		if err != nil {
			return err
		}
		cell = append(cell, ms(w.rec.timed("CellCache.Invoke", id, sp, func() { _, err = servedResult(fresh, cs, true) })))
		if err != nil {
			return err
		}
		w.rec.end(sp)
	}
	w.rec.end(walk)
	w.set("serve.cell_ms", "ms", cell.Median(), cell.N())
	specs := make([]workload.Spec, 0, 3)
	for _, c := range sched.Cells[:min(3, len(sched.Cells))] {
		cs, _ := cellSpec(c, pop)
		specs = append(specs, cs.Workload)
	}
	if err := w.layerWalk(specs); err != nil {
		return err
	}
	// The walk's program builds cover the served functions, not Table 1.
	w.set("workload.build_ms", "ms", build.Median(), build.N())
	return nil
}

// popSpecs samples the seed's population: the specs the server resolves
// by name, and the names a schedule draws from, smallest code first.
func popSpecs(seed uint64) (map[string]workload.Spec, []string, error) {
	fns, err := population.Sample(population.Params{Seed: seed, N: servePopulation})
	if err != nil {
		return nil, nil, err
	}
	pop := map[string]workload.Spec{}
	var names []string
	for _, f := range fns {
		if _, err := workload.ByName(f.Name); err == nil {
			continue // the server resolves Table-1 names first
		}
		pop[f.Name] = f.Spec
		names = append(names, f.Name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := pop[names[i]].Gen.CodeKiB, pop[names[j]].Gen.CodeKiB
		return a < b || (a == b && names[i] < names[j])
	})
	return pop, names, nil
}

// makeServeSchedule draws the seed's serve-mix schedule over every
// configuration kind.
func makeServeSchedule(seed uint64, names []string, d time.Duration) schedule {
	var configs []string
	for _, k := range sim.Kinds() {
		configs = append(configs, string(k))
	}
	p := serveSchedule
	p.Duration = d
	return makeSchedule(seed, names, configs, p)
}
