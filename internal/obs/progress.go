package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressReporter is a Tracer that narrates cell completions of a long
// experiment run: per-cell completion lines plus an ETA extrapolated from
// the observed simulation rate. Cache-served cells are counted but not
// narrated (they complete in microseconds and would flood the log).
//
// The ETA covers the experiment matrix currently in flight — RunAll runs
// experiments sequentially, so the in-matrix ETA is the actionable number.
type ProgressReporter struct {
	BaseTracer

	mu      sync.Mutex
	w       io.Writer
	clock   func() time.Time
	started map[string]time.Time // experiment → first event time
	cells   int                  // cells observed overall
	hits    int                  // of which cache-served
}

// NewProgressReporter writes progress lines to w (typically os.Stderr).
func NewProgressReporter(w io.Writer) *ProgressReporter {
	return &ProgressReporter{w: w, clock: time.Now, started: make(map[string]time.Time)}
}

// CellDone implements Tracer.
func (p *ProgressReporter) CellDone(e CellDoneEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock()
	first, ok := p.started[e.Experiment]
	if !ok {
		// First event for this matrix: the cell's own duration is the
		// best available estimate of when the matrix started.
		first = now.Add(-e.Elapsed)
		p.started[e.Experiment] = first
	}
	p.cells++
	if e.Cached {
		p.hits++
		return
	}
	eta := ""
	if left := e.Total - e.Done; left > 0 && e.Done > 0 {
		if elapsed := now.Sub(first); elapsed > 0 {
			per := elapsed / time.Duration(e.Done)
			eta = fmt.Sprintf(", ETA %s", (per * time.Duration(left)).Round(time.Second))
		}
	}
	fmt.Fprintf(p.w, "[%s %d/%d] %s/%s done in %.1fs%s\n",
		e.Experiment, e.Done, e.Total, e.Workload, e.Config, e.Elapsed.Seconds(), eta)
}

// CellRetried implements Tracer: retries are narrated so a run that limps
// through transient failures is visible, not silent.
func (p *ProgressReporter) CellRetried(e CellRetriedEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "[%s] %s/%s attempt %d failed (%s), retrying in %s\n",
		e.Experiment, e.Workload, e.Config, e.Attempt, e.Err, e.Backoff)
}

// CellFailed implements Tracer.
func (p *ProgressReporter) CellFailed(e CellFailedEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.Status == "skipped" {
		fmt.Fprintf(p.w, "[%s] %s/%s skipped (run canceled)\n",
			e.Experiment, e.Workload, e.Config)
		return
	}
	fmt.Fprintf(p.w, "[%s] %s/%s FAILED after %d attempt(s): %s\n",
		e.Experiment, e.Workload, e.Config, e.Attempts, e.Err)
}

// Summary returns the totals observed so far (cells completed, of which
// served without a simulation; see CellDoneEvent.Cached).
func (p *ProgressReporter) Summary() (cells, cacheHits int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cells, p.hits
}
