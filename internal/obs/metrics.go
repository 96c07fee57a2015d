// Package obs is the simulator's structured observability layer: a typed
// metrics registry every subsystem registers into, an event-tracing hook API
// the engine hot path emits through (zero-cost when no tracer is installed),
// a run-progress reporter for long experiment matrices, and the versioned
// machine-readable result documents the CLIs export.
//
// obs depends only on the standard library so that every other internal
// package — engine, ignite, prefetch, lukewarm, experiments — can import it
// without cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Labels is an ordered label set. Construct with L; ordering is
// canonicalized (sorted by key) so equal sets compare equal.
type Labels []Label

// L builds a canonical label set from alternating key, value strings.
// L("component", "btb", "level", "l2") → component=btb,level=l2.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs.L: odd number of key/value strings")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// With returns a copy of the set extended by the given pairs.
func (ls Labels) With(kv ...string) Labels {
	ext := L(kv...)
	out := make(Labels, 0, len(ls)+len(ext))
	out = append(out, ls...)
	out = append(out, ext...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// String renders the set as "k=v,k2=v2" (empty string for no labels).
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Kind discriminates metric types in snapshots.
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
)

// Counter is a monotonically increasing event counter owned by the
// registry. The zero value is ready to use. Updates are atomic, so a
// counter may be incremented from many goroutines (server request handlers)
// while a concurrent Snapshot scrapes it — the serving daemon's /metrics
// endpoint reads live registries, unlike the batch pipeline's post-run
// snapshots. The engine's own hot-path statistics remain the unsynchronized
// stats.Counter; they enter a registry only through CounterFunc once their
// cell is quiescent.
type Counter struct{ n atomic.Uint64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a point-in-time value. Set/Add/Value are atomic, safe against
// concurrent scrapes.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (negative deltas decrease it) — the
// in-flight-request idiom: Add(1) on entry, Add(-1) on exit.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is one registered instrument.
type metric struct {
	name   string
	labels Labels
	kind   Kind

	counter *Counter
	gauge   *Gauge
	// read-through sources bridging pre-existing component counters into
	// the registry without relocating their hot-path storage.
	counterFn func() uint64
	gaugeFn   func() float64
}

func (m *metric) key() string { return sampleKey(m.name, m.labels) }

func sampleKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + labels.String() + "}"
}

// Registry holds a set of named, labeled metrics. Registration is
// synchronized (components register concurrently under the cell scheduler),
// and the registry-owned instruments — Counter and Gauge — are
// safe for concurrent update and scrape, so a live registry can back an
// HTTP /metrics endpoint while request workers update it. Read-through
// CounterFunc/GaugeFunc metrics carry their own contract: see CounterFunc.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// registerLocked finds or creates the metric slot; r.mu must be held (the
// instrument fields are guarded by the same lock until handed out).
func (r *Registry) registerLocked(name string, labels Labels, kind Kind) *metric {
	key := sampleKey(name, labels)
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: labels, kind: kind}
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use. Repeated registration returns the same instrument.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.registerLocked(name, labels, KindCounter)
	if m.counter == nil && m.counterFn == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// CounterFunc registers a read-through counter whose value is sampled from
// fn at snapshot time — the bridge for components that keep their own
// hot-path counters (BTB, caches, traffic) and expose them uniformly here.
//
// fn is called with the registry lock held but with no synchronization
// against the component it reads. The caller must guarantee one of:
// the component is quiescent by the time the registry is scraped (the batch
// pipeline's contract — cell metrics are registered and snapshotted only
// after the cell's run completes, see CellCache.compute), or fn reads an
// atomic source (obs.RunHealth's atomic.Int64 counters, the serving
// daemon's live queue-depth gauge). A read-through function over a
// still-running engine's plain counters is a data race by construction.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.registerLocked(name, labels, KindCounter)
	m.counterFn = fn
	m.counter = nil
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.registerLocked(name, labels, KindGauge)
	if m.gauge == nil && m.gaugeFn == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a read-through gauge sampled from fn at snapshot
// time. The same synchronization contract as CounterFunc applies: fn must
// read a quiescent component or an atomic source.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.registerLocked(name, labels, KindGauge)
	m.gaugeFn = fn
	m.gauge = nil
}

// Sample is one metric's value at snapshot time.
type Sample struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	Value  float64 `json:"value"`
}

// Key returns the sample's canonical identity, name{k=v,...}.
func (s Sample) Key() string { return sampleKey(s.Name, s.Labels) }

// Snapshot is a deterministic (sorted by key) point-in-time reading of a
// registry.
type Snapshot []Sample

// Snapshot reads every registered metric. The result is sorted by key so
// two snapshots of identical state are byte-identical when serialized.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.order))
	for _, key := range r.order {
		m := r.metrics[key]
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch {
		case m.counterFn != nil:
			s.Value = float64(m.counterFn())
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gaugeFn != nil:
			s.Value = m.gaugeFn()
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Values flattens the snapshot to key → value — the form stored per simulation cell and exported in result
// documents.
func (s Snapshot) Values() map[string]float64 {
	out := make(map[string]float64, len(s))
	for _, smp := range s {
		out[smp.Key()] = smp.Value
	}
	return out
}

// Get returns the sample with the given key, if present.
func (s Snapshot) Get(key string) (Sample, bool) {
	for _, smp := range s {
		if smp.Key() == key {
			return smp, true
		}
	}
	return Sample{}, false
}
