package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ignite/internal/obs"
)

// span is one timed call across a layer boundary. Spans of one cell or one
// request share an ID; Parent is the index of the enclosing span (-1 for a
// root).
type span struct {
	Name   string
	ID     string
	Parent int
	Start  time.Duration // since the recorder started
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs share the traced code paths.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name, id string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// begin opens a span whose end is set by end.
func (r *recorder) begin(name, id string, parent int) int {
	now := time.Now()
	return r.add(name, id, parent, now, now)
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = time.Since(r.t0)
	r.mu.Unlock()
}

// timed runs fn inside a span and returns fn's duration.
func (r *recorder) timed(name, id string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, id, parent, start, end)
	return end.Sub(start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, parent.End)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// traceEvent is one Chrome trace-event record ("X" complete event), the
// format Perfetto and chrome://tracing read offline.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Spans of one cell
// or request share a track; spans without an ID go on track 0.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	tracks := map[string]int{}
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		tid := 0
		if s.ID != "" {
			if _, ok := tracks[s.ID]; !ok {
				tracks[s.ID] = len(tracks) + 1
			}
			tid = tracks[s.ID]
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent, "id": s.ID},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cellObserver receives the experiment scheduler's per-cell events. It
// records the latency of every first (uncached) cell request and, when a
// recorder is attached, one span per cell request under the experiment
// span that is current.
type cellObserver struct {
	obs.BaseTracer
	rec *recorder

	mu       sync.Mutex
	parent   int
	requests int
	hits     int
	cold     Samples // ms, uncached CellDone.Elapsed
	failed   int
}

func (o *cellObserver) setParent(i int) {
	o.mu.Lock()
	o.parent = i
	o.mu.Unlock()
}

func (o *cellObserver) CellDone(e obs.CellDoneEvent) {
	end := time.Now()
	o.mu.Lock()
	o.requests++
	if e.Cached {
		o.hits++
	} else {
		o.cold = append(o.cold, ms(e.Elapsed))
	}
	parent := o.parent
	o.mu.Unlock()
	name := "cell"
	if e.Cached {
		name = "cell.hit"
	}
	o.rec.add(name, e.Workload+"/"+e.Config, parent, end.Add(-e.Elapsed), end)
}

func (o *cellObserver) CellFailed(obs.CellFailedEvent) {
	o.mu.Lock()
	o.failed++
	o.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
