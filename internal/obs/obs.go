// Package obs is the engine's lightweight, dependency-free observability
// layer: atomic counters, float gauges and hierarchical wall-clock spans
// (the one timing source), all collected in a Registry and exported as a
// Snapshot, which JSONSink writes as JSON. Progress events are not
// metrics and do not pass through here: an exploration streams them as
// typed dse.Event values on its own Config.EventSink.
//
// Design rules:
//
//   - No global state. Instrumented packages receive a *Registry through
//     their existing config/option structs; callers that do not care pass
//     nothing.
//   - A nil *Registry (and every handle obtained from one) is a valid
//     no-op, so hot paths instrument unconditionally without nil checks
//     or branching at call sites.
//   - All operations are safe for concurrent use; counters and gauges are
//     single atomic words, span nodes take a short mutex only when
//     recording.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 (utilizations, rates, last-seen
// values).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetRatio stores num/den, or 0 when den is zero. No-op on a nil gauge.
func (g *Gauge) SetRatio(num, den int64) {
	if g == nil {
		return
	}
	if den == 0 {
		g.Set(0)
		return
	}
	g.Set(float64(num) / float64(den))
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry collects all metrics of one run. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is a valid no-op sink for
// every method.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge

	root *spanNode
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		root:     newSpanNode(""),
	}
}

// Counter returns (creating on first use) the named counter. Returns nil
// on a nil registry; the nil counter is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot captures a consistent point-in-time view of every metric.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      map[string]int64{},
		Gauges:        map[string]float64{},
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	s.Spans = r.root.childStats()
	return s
}

// SpanStats is the exported aggregate of one span-tree node: all
// same-named spans started under the same parent fold into one node.
type SpanStats struct {
	Name         string      `json:"name"`
	Count        int64       `json:"count"`
	TotalSeconds float64     `json:"total_seconds"`
	MinSeconds   float64     `json:"min_seconds"`
	MaxSeconds   float64     `json:"max_seconds"`
	Children     []SpanStats `json:"children,omitempty"`
}

// Snapshot is a point-in-time export of a registry, the unit JSONSink
// emits.
type Snapshot struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Counters      map[string]int64   `json:"counters"`
	Gauges        map[string]float64 `json:"gauges"`
	Spans         []SpanStats        `json:"spans"`
}
