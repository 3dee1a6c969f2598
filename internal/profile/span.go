package profile

import (
	"writeavoid/internal/machine"
)

// Span is one node of the attribution tree: the events recorded between an
// EvBegin and its matching EvEnd, including everything inside nested spans.
type Span struct {
	Name string
	// Start and End are profiler-clock readings: counts of counter-bearing
	// events (loads, stores, inits, discards, flops, touches) recorded
	// before the span opened and closed. The clock is deterministic —
	// replaying the same program yields the same span boundaries.
	Start, End int64
	// StartTime and EndTime are cost-model seconds at the boundaries when
	// the recorder has a model (SetCostModel); zero otherwise.
	StartTime, EndTime float64
	// Delta is the snapshot of exactly the events inside the span,
	// children included: cum(End) - cum(Start), nothing sampled. It is
	// zero while the span is open.
	Delta machine.Snapshot
	// Children are the directly nested spans, in open order.
	Children []*Span
}

// Self returns the span's own events: Delta minus the sum of the children's
// deltas. Snapshots are a group under Add/Sub, so Self is exact, and
// Self + Σ children.Delta == Delta counter for counter.
func (s *Span) Self() machine.Snapshot {
	self := s.Delta
	for _, c := range s.Children {
		self = self.Sub(c.Delta)
	}
	return self
}

// Walk visits the span and its subtree depth-first in open order.
func (s *Span) Walk(f func(s *Span, depth int)) { s.walk(f, 0) }

func (s *Span) walk(f func(*Span, int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

// boundary is one span boundary of the log: the clock readings there and
// where its row of cumulative counters lies in the row log.
type boundary struct {
	clock         int64
	time          float64
	chunk, off, n int32
}

// The row log is a list of chunks that never move once allocated: the
// first holds minRowChunk words, each next one twice its predecessor up to
// maxRowChunk, so the log costs about its own size and no copying as it
// grows.
const (
	minRowChunk = 256
	maxRowChunk = 1 << 15
)

// spanRec is one span of the log, by boundary index.
type spanRec struct {
	name       string
	parent     int32 // -1 for a root
	depth      int32
	start, end int32 // end is -1 while the span is open
}

// SpanRecorder turns the EvBegin/EvEnd marks the algorithm drivers emit into
// a span tree whose every span carries the exact counter delta of the events
// inside it. It folds no counters of its own: it reads a machine.Ledger — a
// private one when built with NewSpanRecorder, or a distributed rank's
// ledger shared with that rank's flight ring (ProcGroup.Follow) — and, at
// every span boundary, appends one row of the ledger's cumulative counters
// to a flat log. Spans are kept in open order (a pre-order walk of the
// forest) by boundary index, so a boundary allocates nothing once the logs
// have grown. A span's Delta is built once, the first time the tree is read
// after the span closed; the trace exporter and Summary read the log
// directly and build no tree at all.
//
// Exactness invariant, extending the streaming layer's to trees and pinned
// by tests here and in cmd/wabench: for every span, Self + Σ children.Delta
// equals Delta; and Σ roots.Delta plus the events outside any span
// (Unattributed) equals Total, the recorder's post-hoc snapshot.
//
// It is not a machine.Recorder itself: attach its Ledger() to a hierarchy,
// or record into it, and the ledger's span tap subscription makes it ask for
// the span marks (Hierarchy.Marking) and the per-element touch stream, so
// traced runs attribute touch counts per span. It is not safe for
// concurrent use: give each processor of a distributed machine its own
// (dist.Config.Observe, ProcGroup.Recorder). The geometry grows on demand
// with generic level names, so one recorder can follow hierarchies of
// different depths.
type SpanRecorder struct {
	led *machine.Ledger

	rows   [][]int64  // one row of cumulative counters per boundary, in chunks
	bounds []boundary // every boundary, in order
	spans  []spanRec  // every span, in open order
	stack  []int32    // open spans, innermost last

	nodes []*Span // spans[:len(nodes)] materialized by the reads so far
	roots []*Span
	open  []int32 // materialized spans that were still open when read

	diff machine.CounterSet // delta scratch
	cur  []int64            // current-counters row scratch
}

// NewSpanRecorder builds a recorder seeded with the given level geometry
// (nil or short: grows on demand, starting at two generic levels), reading
// a private ledger.
func NewSpanRecorder(levels []machine.Level) *SpanRecorder {
	return follow(machine.NewLedger(levels))
}

// follow builds a recorder that logs l's counters at l's span marks.
func follow(l *machine.Ledger) *SpanRecorder {
	r := &SpanRecorder{led: l}
	l.SetSpanTap(r)
	return r
}

// Ledger returns the ledger the recorder reads.
func (r *SpanRecorder) Ledger() *machine.Ledger { return r.led }

// SetCostModel attaches alpha-beta coefficients so spans carry model time
// (StartTime/EndTime, summed load+store with no write-buffer overlap —
// per-span overlap would not telescope). Events at interfaces beyond the
// model's reach charge zero.
func (r *SpanRecorder) SetCostModel(cm machine.CostModel) { r.led.SetCostModel(cm) }

// SpanBegin and SpanEnd are the ledger's span-tap calls, made from inside
// the fold exactly at each mark.
func (r *SpanRecorder) SpanBegin(label string) { r.push(label) }
func (r *SpanRecorder) SpanEnd()               { r.pop() }

// Begin opens a span directly (for drivers not routed through a Hierarchy,
// e.g. wabench section marks), syncing buffered events first so the
// boundary lands after everything already emitted.
func (r *SpanRecorder) Begin(name string) {
	r.led.Sync()
	r.push(name)
}

// End closes the innermost open span.
func (r *SpanRecorder) End() {
	r.led.Sync()
	r.pop()
}

// Mark closes every open span and begins a new top-level one: consecutive
// Marks partition a run into sections. Events buffered in attached
// hierarchies are synced first — no event emitted before the mark is ever
// attributed past it.
func (r *SpanRecorder) Mark(name string) {
	r.led.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
	r.push(name)
}

// boundary logs the ledger's cumulative counters and clocks and returns the
// boundary's index.
func (r *SpanRecorder) boundary() int32 {
	c := r.led.Counters()
	n := machine.RowWidth(len(c.Lvl))
	k := len(r.rows) - 1
	if k < 0 || len(r.rows[k])+n > cap(r.rows[k]) {
		size := minRowChunk
		if k >= 0 {
			size = min(2*cap(r.rows[k]), maxRowChunk)
		}
		r.rows = append(r.rows, make([]int64, 0, max(size, n)))
		k++
	}
	off := len(r.rows[k])
	r.rows[k] = c.AppendRow(r.rows[k])
	r.bounds = append(r.bounds, boundary{
		clock: r.led.Clock(), time: r.led.Time(),
		chunk: int32(k), off: int32(off), n: int32(n),
	})
	return int32(len(r.bounds) - 1)
}

func (r *SpanRecorder) push(name string) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, spanRec{
		name: name, parent: parent, depth: int32(len(r.stack)),
		start: r.boundary(), end: -1,
	})
	r.stack = append(r.stack, int32(len(r.spans)-1))
}

func (r *SpanRecorder) pop() {
	n := len(r.stack)
	if n == 0 {
		panic("profile: span End without matching Begin")
	}
	top := r.stack[n-1]
	r.stack = r.stack[:n-1]
	r.spans[top].end = r.boundary()
}

// row returns boundary b's row of cumulative counters.
func (r *SpanRecorder) row(b int32) []int64 {
	bd := &r.bounds[b]
	return r.rows[bd.chunk][bd.off : bd.off+bd.n]
}

// counters sets c to the counter delta between two boundaries (end -1: the
// current counters) and returns it.
func (r *SpanRecorder) counters(c *machine.CounterSet, start, end int32) *machine.CounterSet {
	var hi []int64
	if end < 0 {
		r.cur = r.led.Counters().AppendRow(r.cur[:0])
		hi = r.cur
	} else {
		hi = r.row(end)
	}
	c.SetRowDiff(hi, r.row(start))
	return c
}

// delta renders the counter delta between two boundaries (end -1: now).
func (r *SpanRecorder) delta(start, end int32) machine.Snapshot {
	return r.led.Render(r.counters(&r.diff, start, end))
}

// Finish syncs buffered events, closes any spans still open (at the current
// clock) and freezes the tree. Idempotent; called by exporters.
func (r *SpanRecorder) Finish() {
	r.led.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
}

// Roots returns the top-level spans recorded so far (buffered events synced
// first, so closed spans carry their full deltas). Spans still open have a
// zero End and Delta until a later read finds them closed.
func (r *SpanRecorder) Roots() []*Span {
	r.led.Sync()
	for i := len(r.nodes); i < len(r.spans); i++ {
		sp := &r.spans[i]
		b := r.bounds[sp.start]
		n := &Span{Name: sp.name, Start: b.clock, StartTime: b.time}
		if sp.parent < 0 {
			r.roots = append(r.roots, n)
		} else {
			p := r.nodes[sp.parent]
			p.Children = append(p.Children, n)
		}
		r.nodes = append(r.nodes, n)
		r.open = append(r.open, int32(i))
	}
	k := 0
	for _, i := range r.open {
		sp := &r.spans[i]
		if sp.end < 0 {
			r.open[k] = i
			k++
			continue
		}
		n, b := r.nodes[i], r.bounds[sp.end]
		n.End, n.EndTime = b.clock, b.time
		n.Delta = r.delta(sp.start, sp.end)
	}
	r.open = r.open[:k]
	return r.roots
}

// Clock returns the current event-count clock reading.
func (r *SpanRecorder) Clock() int64 {
	r.led.Sync()
	return r.led.Clock()
}

// Time returns accumulated cost-model seconds (zero without a model).
func (r *SpanRecorder) Time() float64 {
	r.led.Sync()
	return r.led.Time()
}

// Snapshot returns the recorder's cumulative snapshot: the post-hoc totals
// every delta telescopes into. Buffered events are synced first.
func (r *SpanRecorder) Snapshot() machine.Snapshot {
	r.led.Sync()
	return r.led.Snapshot(true)
}

// Total is Snapshot under the name the exactness invariant uses.
func (r *SpanRecorder) Total() machine.Snapshot { return r.Snapshot() }

// Unattributed returns the events outside every root span: Total minus the
// root deltas. With marks covering the whole run it is the zero snapshot.
func (r *SpanRecorder) Unattributed() machine.Snapshot {
	out := r.Snapshot()
	for i := range r.spans {
		if sp := &r.spans[i]; sp.parent < 0 {
			out = out.Sub(r.delta(sp.start, sp.end))
		}
	}
	return out
}
