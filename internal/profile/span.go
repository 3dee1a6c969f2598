package profile

import (
	"math/bits"

	"writeavoid/internal/machine"
)

// Span is one node of the attribution tree: the events recorded between an
// EvBegin and its matching EvEnd, including everything inside nested spans.
// Once a read has found it closed, a span never changes again, children
// included, which lets a publisher render a closed subtree once (the
// /spans head of experiments.Session).
type Span struct {
	Name string
	// Start and End are profiler-clock readings: counts of counter-bearing
	// events (loads, stores, inits, discards, flops) recorded
	// before the span opened and closed. The clock is deterministic —
	// replaying the same program yields the same span boundaries.
	Start, End int64
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

// boundary is one span boundary of the log: the clock reading there and
// where its entry lies in the row log. A whole entry is the boundary's row
// of cumulative counters, n words; any other is a mask of the row fields
// that moved since the previous boundary's row, followed by their new
// values in field order.
type boundary struct {
	clock         int64
	chunk, off, n int32 // n: the row's width
	whole         bool
}

// The row log is a list of chunks that never move once allocated: the
// first holds minRowChunk words, each next one twice its predecessor up to
// maxRowChunk, so the log costs about its own size and no copying as it
// grows.
const (
	minRowChunk = 256
	maxRowChunk = 1 << 15
)

// wholeEvery is the checkpoint interval of the row log: every wholeEvery-th
// boundary logs its whole row, so rebuilding a row applies at most
// wholeEvery-1 masks to the nearest whole row at or before it. Over an
// observed dist op a boundary moves 3.6 of its 22 fields on average, so a
// mask entry is about a fifth of a row; at 32 the checkpoints add under a
// word per boundary, and a random read stays under two hundred word
// copies. A fixed constant, not an option: it trades memory against read
// time only, never what is read.
const wholeEvery = 32

// maxMaskFields is the widest row a 64-bit mask covers; wider rows (seven
// levels or more) are always logged whole.
const maxMaskFields = 64

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
// every span boundary, logs the ledger's cumulative counter row to a
// chunked log. It logs only what moved: a mask of the fields that differ
// from the previous boundary's row and their new values, with a whole row
// at every wholeEvery-th boundary, whenever the row's width changes (the
// geometry grew) and for rows too wide for the mask. Spans are kept in
// open order (a pre-order walk of the forest) by boundary index, so a
// boundary allocates nothing once the logs have grown. A span's Delta is
// built once, the first time the tree is read after the span closed; the
// trace exporter and Summary read the log directly and build no tree at
// all.
//
// Exactness invariant, extending the streaming layer's to trees and pinned
// by tests here and in cmd/wabench: for every span, Self + Σ children.Delta
// equals Delta; and Σ roots.Delta plus the events outside any span
// (Unattributed) equals Total, the recorder's post-hoc snapshot.
//
// It is not a machine.Recorder itself: attach its Ledger() to a hierarchy,
// or record into it, and the ledger's span tap subscription makes it ask for
// the span marks (Hierarchy.Marking). It is not safe for
// concurrent use: give each processor of a distributed machine its own
// (dist.Config.Observe, ProcGroup.Recorder). The geometry grows on demand
// with generic level names, so one recorder can follow hierarchies of
// different depths.
type SpanRecorder struct {
	led *machine.Ledger

	log    [][]int64  // every boundary's entry, in chunks
	bounds []boundary // every boundary, in order
	spans  []spanRec  // every span, in open order
	stack  []int32    // open spans, innermost last
	last   []int64    // the latest boundary's row
	next   []int64    // the row being logged

	nodes []*Span // spans[:len(nodes)] materialized by the reads so far
	roots []*Span
	open  []int32 // materialized spans that were still open when read

	rows rowScratch // Roots' and Unattributed's scratch
}

// rowScratch is what a reader of the row log rebuilds rows into: two rows
// and their delta. A Profiler's Summary and a TraceBuilder each share one
// across every recorder they read.
type rowScratch struct {
	lo, hi []int64
	delta  machine.CounterSet
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

// boundary logs the ledger's cumulative counters and clock and returns the
// boundary's index.
func (r *SpanRecorder) boundary() int32 {
	b := int32(len(r.bounds))
	c := r.led.Counters()
	n := machine.RowWidth(len(c.Lvl))
	whole := b%wholeEvery == 0 || n != len(r.last) || n > maxMaskFields
	if cap(r.next) < n {
		rows := make([]int64, 2*n) // last and next in one allocation
		r.last, r.next = rows[:0:n], rows[n:n]
	}
	r.next = c.AppendRow(r.next[:0])
	var mask uint64
	words := n
	if !whole {
		for i, v := range r.next {
			if v != r.last[i] {
				mask |= 1 << i
			}
		}
		words = 1 + bits.OnesCount64(mask)
	}
	k := len(r.log) - 1
	if k < 0 || len(r.log[k])+words > cap(r.log[k]) {
		size := minRowChunk
		if k >= 0 {
			size = min(2*cap(r.log[k]), maxRowChunk)
		}
		r.log = append(r.log, make([]int64, 0, max(size, words)))
		k++
	}
	off := len(r.log[k])
	if whole {
		r.log[k] = append(r.log[k], r.next...)
	} else {
		r.log[k] = append(r.log[k], int64(mask))
		for m := mask; m != 0; m &= m - 1 {
			r.log[k] = append(r.log[k], r.next[bits.TrailingZeros64(m)])
		}
	}
	r.bounds = append(r.bounds, boundary{
		clock: r.led.Clock(), chunk: int32(k), off: int32(off), n: int32(n), whole: whole,
	})
	r.last, r.next = r.next, r.last
	return b
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

// step turns row, boundary b-1's row, into boundary b's and returns it: a
// whole entry replaces it, a mask entry overwrites the fields that moved.
func (r *SpanRecorder) step(row []int64, b int32) []int64 {
	bd := &r.bounds[b]
	e := r.log[bd.chunk][bd.off:]
	if bd.whole {
		return append(row[:0], e[:bd.n]...)
	}
	mask, vals := uint64(e[0]), e[1:]
	for ; mask != 0; mask &= mask - 1 {
		row[bits.TrailingZeros64(mask)] = vals[0]
		vals = vals[1:]
	}
	return row
}

// row rebuilds boundary b's row of cumulative counters into dst and
// returns it: the nearest whole row at or before b, then the masks after it.
func (r *SpanRecorder) row(dst []int64, b int32) []int64 {
	k := b
	for !r.bounds[k].whole {
		k--
	}
	for ; k <= b; k++ {
		dst = r.step(dst, k)
	}
	return dst
}

// counters sets s.delta to the counter delta between two boundaries (end
// -1: the current counters) and returns it.
func (r *SpanRecorder) counters(s *rowScratch, start, end int32) *machine.CounterSet {
	if end < 0 {
		s.hi = r.led.Counters().AppendRow(s.hi[:0])
	} else {
		s.hi = r.row(s.hi, end)
	}
	s.lo = r.row(s.lo, start)
	s.delta.SetRowDiff(s.hi, s.lo)
	return &s.delta
}

// delta renders the counter delta between two boundaries (end -1: now).
func (r *SpanRecorder) delta(start, end int32) machine.Snapshot {
	return r.led.Render(r.counters(&r.rows, start, end))
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
		n := &Span{Name: sp.name, Start: r.bounds[sp.start].clock}
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
		n := r.nodes[i]
		n.End = r.bounds[sp.end].clock
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

// Snapshot returns the recorder's cumulative snapshot: the post-hoc totals
// every delta telescopes into. Buffered events are synced first.
func (r *SpanRecorder) Snapshot() machine.Snapshot {
	r.led.Sync()
	return r.led.Snapshot()
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
