// Typed progress events: the public, structured view of a running
// exploration. Config.EventSink receives every event synchronously, one
// at a time, on the emitting goroutine (the ttadse -progress printer,
// the daemon's job streams); FrontTracker folds candidate events into a
// live Pareto-front snapshot (the ttadsed daemon's GET /front endpoint).
//
// Event schema (stable, serialized as JSON by the daemon's event
// stream):
//
//	seq        monotone 1-based sequence number within one exploration
//	kind       "candidate" | "restored" | "panic" | "degraded" |
//	           "warning" | "done"
//	msg        human-readable one-liner (matches the historical
//	           -progress stderr text)
//	n, total   progress counters when known (n completed of total)
//	candidate  the full evaluation record, on "candidate" and
//	           "restored" events: the JSON report's candidate record
//	           (report.JSONCandidate) plus "err"
//
// Kinds:
//
//   - "candidate": one evaluation finished (feasible, infeasible or
//     error — see Candidate.Err).
//   - "restored": one evaluation was restored from a checkpoint instead
//     of recomputed; emitted before any live evaluation starts.
//   - "panic": a candidate evaluation panicked and was isolated (the
//     matching "candidate" event carries the error too).
//   - "degraded": an annotation the run reads fell back to the
//     analytical bound because its ATPG budget ran out; the warm-up
//     stage emits the notice Annotator.AnnotateContext returned, also
//     when another run's ATPG degraded it and the annotator cached it.
//   - "warning": a non-fatal infrastructure problem: first what loading
//     the warm cache or the checkpoint recovered, quarantined or ignored
//     (Annotator.LoadWarnings, OpenCheckpoint), ahead of any "restored"
//     event; then failed checkpoint flushes, the run's last included.
//   - "done": the exploration is over; always the final event, emitted
//     on every exit path including configuration errors. Nothing about
//     the run follows it.
package dse

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/report"
)

// EventKind classifies a typed exploration event.
type EventKind string

// The event kinds, in the order a consumer typically sees them.
const (
	EventRestored  EventKind = "restored"
	EventCandidate EventKind = "candidate"
	EventPanic     EventKind = "panic"
	EventDegraded  EventKind = "degraded"
	EventWarning   EventKind = "warning"
	EventDone      EventKind = "done"
)

// CandidateUpdate is the serializable record of one completed (or
// restored) candidate evaluation: the report's record of the candidate
// plus the evaluation error, if any — everything a consumer needs to
// build live fronts or render progress without reaching into *Result.
type CandidateUpdate struct {
	report.JSONCandidate
	Err string `json:"err,omitempty"`
}

// Event is one typed progress notification from a running exploration.
// See the package comment of this file for the schema.
type Event struct {
	Seq       int64            `json:"seq"`
	Kind      EventKind        `json:"kind"`
	Msg       string           `json:"msg,omitempty"`
	N         int              `json:"n,omitempty"`
	Total     int              `json:"total,omitempty"`
	Candidate *CandidateUpdate `json:"candidate,omitempty"`
}

// emitter stamps sequence numbers onto one exploration's event stream.
// Stamping and delivery happen under one lock, so the sink sees Seq
// strictly increasing even when parallel workers emit at once. A nil
// emitter (no sink configured) is a no-op, mirroring obs.
type emitter struct {
	mu   sync.Mutex
	sink func(Event)
	seq  int64
}

func newEmitter(sink func(Event)) *emitter {
	if sink == nil {
		return nil
	}
	return &emitter{sink: sink}
}

func (e *emitter) emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	ev.Seq = e.seq
	e.sink(ev)
}

// candidateUpdate records one finished evaluation slot; an evaluation
// error marks it infeasible.
func candidateUpdate(index int, c *Candidate, err error) *CandidateUpdate {
	u := &CandidateUpdate{JSONCandidate: c.Record(index)}
	if err != nil {
		u.Err = err.Error()
		u.Feasible = false
	}
	return u
}

// FrontTracker folds candidate events into a live Pareto-front snapshot,
// so partial fronts are observable while an exploration is still
// running — the dse-side hook behind the daemon's GET /front endpoint.
// Install Observe as (or inside) Config.EventSink. All methods are safe
// for concurrent use.
//
// The tracker is built on pareto.StreamingFront: each feasible candidate
// is inserted into two incremental dominance archives (area/time and
// area/time/test) as its event arrives, dominated entries are evicted on
// the spot, and only current front members are retained. Snapshot cost
// and retained memory are therefore O(front size), independent of how
// many candidates the job has evaluated — the property that keeps a
// long-running daemon job's GET /front flat over a million-candidate
// sweep. (The per-candidate bookkeeping is one bit in a seen-index
// bitset, which also dedupes progress accounting: an event replayed for
// an already-observed candidate index — e.g. a restored evaluation
// re-emitted around a checkpoint resume — is counted once, so
// "evaluated" can never pass "total".)
type FrontTracker struct {
	mu        sync.Mutex
	total     int
	evaluated int
	feasible  int
	rejected  int // NaN-coordinate candidates refused at the pareto boundary

	seen    bitset
	sf2     *pareto.StreamingFront
	sf3     *pareto.StreamingFront
	members map[int]*frontMember // candidate index -> update, while on either front

	reg *obs.Registry
}

// frontMember refcounts one retained candidate: it may sit on the 2-D
// front, the 3-D front, or both, and is released when evicted from its
// last one.
type frontMember struct {
	upd  CandidateUpdate
	refs int
}

// NewFrontTracker returns an empty tracker.
func NewFrontTracker() *FrontTracker {
	return &FrontTracker{
		sf2:     pareto.NewStreamingFront(2),
		sf3:     pareto.NewStreamingFront(3),
		members: make(map[int]*frontMember),
	}
}

// NewFrontTrackerObs is NewFrontTracker with live metrics: the tracker
// maintains "pareto.stream.inserts" / "pareto.stream.evictions"
// counters and the "pareto.stream.front_size" gauge (distinct candidates
// currently retained) on reg as events arrive.
func NewFrontTrackerObs(reg *obs.Registry) *FrontTracker {
	t := NewFrontTracker()
	t.reg = reg
	return t
}

// Observe consumes one event ("candidate" and "restored" feed the
// fronts; everything else is ignored). Events carrying a candidate index
// already observed are dropped: progress accounting and the fronts are
// deduplicated by index.
func (t *FrontTracker) Observe(ev Event) {
	if t == nil {
		return
	}
	switch ev.Kind {
	case EventCandidate, EventRestored:
	default:
		return
	}
	c := ev.Candidate
	if c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ev.Total > t.total {
		t.total = ev.Total
	}
	if t.seen.test(c.Index) {
		return // replayed event for a candidate already accounted
	}
	t.seen.set(c.Index)
	t.evaluated++
	if !c.Feasible || c.Err != "" {
		return
	}
	t.feasible++
	c2 := pareto.Point{ID: c.Index, Coords: []float64{c.Area, c.ExecTime}}
	c3 := pareto.Point{ID: c.Index, Coords: []float64{c.Area, c.ExecTime, float64(c.TestCost)}}
	if pareto.ValidateCoords(c3.Coords) != nil {
		// NaN objective: rejecting at the boundary keeps dominance
		// transitive inside the archives (see the pareto package policy).
		t.rejected++
		t.reg.Counter("pareto.stream.rejected").Inc()
		return
	}
	t.insert(t.sf2, c2, c)
	t.insert(t.sf3, c3, c)
	t.reg.Gauge("pareto.stream.front_size").Set(float64(len(t.members)))
}

// insert offers one candidate to an archive and keeps the refcounted
// member map in sync with acceptances and evictions.
func (t *FrontTracker) insert(sf *pareto.StreamingFront, p pareto.Point, c *CandidateUpdate) {
	accepted, evicted, err := sf.Insert(p)
	if err != nil { // validated above; defensive
		t.rejected++
		return
	}
	if accepted {
		t.reg.Counter("pareto.stream.inserts").Inc()
		m := t.members[c.Index]
		if m == nil {
			m = &frontMember{upd: *c}
			t.members[c.Index] = m
		}
		m.refs++
	}
	for _, id := range evicted {
		t.reg.Counter("pareto.stream.evictions").Inc()
		if m := t.members[id]; m != nil {
			if m.refs--; m.refs <= 0 {
				delete(t.members, id)
			}
		}
	}
}

// Progress reports the deduplicated counters: candidates evaluated (each
// index once, however many times its event was delivered) and the
// largest announced total.
func (t *FrontTracker) Progress() (evaluated, total int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evaluated, t.total
}

// FrontSnapshot is a point-in-time view of the fronts over the
// evaluations seen so far. Entries are ordered by candidate index, so
// two snapshots over the same evaluations are deeply equal regardless of
// completion order.
type FrontSnapshot struct {
	Total     int               `json:"total"`
	Evaluated int               `json:"evaluated"`
	Feasible  int               `json:"feasible"`
	Front2D   []CandidateUpdate `json:"front2d"`
	Front3D   []CandidateUpdate `json:"front3d"`
}

// Snapshot returns the current 2-D (area/time) and 3-D (area/time/test)
// fronts over the feasible evaluations observed so far. The fronts are
// maintained incrementally, so the cost is O(front size) — no rescan of
// the evaluated set, whose updates are not even retained.
func (t *FrontTracker) Snapshot() *FrontSnapshot {
	s := &FrontSnapshot{}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Total = t.total
	s.Evaluated = t.evaluated
	s.Feasible = t.feasible
	s.Front2D = t.frontMembers(t.sf2)
	s.Front3D = t.frontMembers(t.sf3)
	return s
}

// frontMembers materializes one archive's members in candidate-index
// order. Called with t.mu held.
func (t *FrontTracker) frontMembers(sf *pareto.StreamingFront) []CandidateUpdate {
	ids := sf.IDs() // ascending, may repeat for duplicate coordinate vectors
	if len(ids) == 0 {
		return nil
	}
	out := make([]CandidateUpdate, 0, len(ids))
	prev := -1
	for _, id := range ids {
		if id == prev {
			continue // one snapshot row per candidate index
		}
		prev = id
		if m := t.members[id]; m != nil {
			out = append(out, m.upd)
		}
	}
	return out
}

// bitset is a growable set of small non-negative integers — one bit per
// candidate index, so deduping a million-candidate run costs ~125 KiB
// instead of retaining a map of evaluations.
type bitset []uint64

func (b *bitset) set(i int) {
	if i < 0 {
		return
	}
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) test(i int) bool {
	if i < 0 {
		return false
	}
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}
