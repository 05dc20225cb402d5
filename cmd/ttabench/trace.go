package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation share a trace id; Parent 0 marks a root span.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	Trace   int     `json:"trace"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s *span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since() float64 { return us(time.Since(t.t0)) }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Trace: trace, StartUS: now})
	return len(t.spans)
}

// end closes the span id opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, traced or not.
func (t *tracer) do(name string, parent, trace int, fn func() error) (time.Duration, error) {
	id := t.start(name, parent, trace)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// spanRef names a parent span for child spans; the zero value (nil
// tracer) records nothing.
type spanRef struct {
	tr        *tracer
	id, trace int
}

// do runs fn inside a child span of s.
func (s spanRef) do(name string, fn func() error) (time.Duration, error) {
	return s.tr.do(name, s.id, s.trace, fn)
}

// durationsMS returns the durations of every closed span called name.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndUS > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfMS sums, per span name, each span's self time: its duration minus
// the part of its interval that its direct children cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.EndUS == 0 {
			continue
		}
		out[s.Name] += (s.EndUS - s.StartUS - covered(s, children[s.ID])) / 1000
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent *span, kids []*span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if k.EndUS > 0 && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps every span plus the per-name self times as JSON.
func (t *tracer) write(path string, extra map[string]metric) error {
	self := t.selfMS()
	t.mu.Lock()
	doc := struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms"`
		Extra  map[string]metric  `json:"extra,omitempty"`
	}{t.spans, self, extra}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
