package machine

import (
	"math"
	"sync"
)

// This file is the one counter fold behind every observing sink. A Ledger is
// a Recorder that folds each counter-bearing event once into a growing
// CounterSet, and the sinks read from it instead of folding the stream
// again themselves:
//
//   - phase observers (monitor.Monitor, monitor.HistogramRecorder) are told,
//     once per phase boundary, the closed phase's exact delta;
//   - stream recorders have their JSONL records cut by the ledger at the
//     exact N-th event and at every phase mark;
//   - a span tap (profile.SpanRecorder) is called at every EvBegin/EvEnd
//     from inside the fold and logs the cumulative counters there;
//   - taps (flight.Recorder's ring, a chained ledger) receive every
//     delivered block after the fold.
//
// A Ledger closes each phase once, and every reader sees the same delta: the
// last closed phase a flight recorder freezes is, by construction, the phase
// the monitor's checks are evaluating, whichever sink's Phase or Finish
// closed it. The sinks are not recorders themselves: each is attached to a
// hierarchy, or recorded into, through its Ledger(). Sinks built on their
// own (monitor.New, flight.New, ...) get a private ledger;
// experiments.Session gives its sinks one shared ledger and attaches only
// that to every hierarchy it observes.
//
// Locking: the fold, phase closes and stream cuts run under the ledger's
// mutex (one acquisition per block); Snapshot, Events and State are safe
// from any goroutine. Stream records are cut under the lock but written to
// their writers after it is released, and phase observers are called
// outside it too, so an observer (a violation hook freezing a flight ring)
// may read the ledger back. Sync, Phase and Finish belong to the run
// goroutine, like the Sources they drive.

// PhaseDelta is one closed phase: its label, its counter-bearing event
// count, and the exact Snapshot delta of the events recorded under it.
type PhaseDelta struct {
	Kernel string   `json:"kernel"`
	Events int64    `json:"events"`
	Delta  Snapshot `json:"delta"`
}

// PhaseObserver is told about every phase boundary of the ledgers it
// subscribes to: PhaseClosed gets the closed phase, or nil when the phase
// carried no counter-bearing events. It is called outside the ledger's
// lock, on the goroutine that drew the boundary, and must treat the delta
// as immutable (other readers share it).
type PhaseObserver interface {
	PhaseClosed(p *PhaseDelta)
}

// SpanTap is called from inside the fold at every EvBegin and EvEnd, in
// stream order, so it can read the ledger's cumulative counters exactly at
// the boundary (Counters, Clock).
type SpanTap interface {
	SpanBegin(label string)
	SpanEnd()
}

// Tap receives every block the ledger is delivered, marks included, right
// after the ledger folded it and under its lock. The slice must not be
// retained.
type Tap interface {
	TapBatch(events []Event)
}

// Ledger is the shared fold; see the file comment.
type Ledger struct {
	Sources

	mu      sync.Mutex
	g       *growingCounters
	prev    *CounterSet // cumulative at the last phase boundary
	scratch *CounterSet // delta scratch

	phase  string
	total  int64 // counter-bearing events folded
	mark   int64 // total at the last phase boundary
	closed *PhaseDelta

	up        *Ledger // the ledger this one is chained below, if any
	span      SpanTap
	taps      []Tap
	streams   []*StreamRecorder
	observers []PhaseObserver
	nextCut   int64       // total at which the nearest stream record is due
	pending   []cutRecord // records cut under the lock, written after it
}

// cutRecord is one stream record cut at an exact event, waiting to be
// written once the ledger's lock is released.
type cutRecord struct {
	s             *StreamRecorder
	phase         string
	events, total int64
	cum           Snapshot
	final         bool
}

// NewLedger builds a ledger seeded with the given level geometry (nil or
// short: two generic levels, growing on demand).
func NewLedger(levels []Level) *Ledger {
	l := &Ledger{g: newGrowingCounters(levels), nextCut: math.MaxInt64}
	l.prev = NewCounterSet(len(l.g.levels))
	l.scratch = NewCounterSet(len(l.g.levels))
	return l
}

// Observe subscribes o to the ledger's phase boundaries.
func (l *Ledger) Observe(o PhaseObserver) {
	l.mu.Lock()
	l.observers = append(l.observers, o)
	l.mu.Unlock()
}

// Unobserve removes o.
func (l *Ledger) Unobserve(o PhaseObserver) {
	l.mu.Lock()
	l.observers = remove(l.observers, o)
	l.mu.Unlock()
}

// AddTap subscribes t to every delivered block.
func (l *Ledger) AddTap(t Tap) {
	l.mu.Lock()
	l.taps = append(l.taps, t)
	l.mu.Unlock()
}

// RemoveTap removes t.
func (l *Ledger) RemoveTap(t Tap) {
	l.mu.Lock()
	l.taps = remove(l.taps, t)
	l.mu.Unlock()
}

// SetSpanTap installs (nil: removes) the one span tap.
func (l *Ledger) SetSpanTap(t SpanTap) {
	l.mu.Lock()
	l.span = t
	l.mu.Unlock()
}

// Chain makes down fold every block l is delivered, right after l folds it,
// and makes down's Sync sync l first, so events driven into down directly
// never overtake events still buffered upstream. A profiler's main span
// tree hangs below a session ledger this way: it is the one reader that
// also sees events no hierarchy emits (krylov's Traffic charges), so it
// keeps a fold of its own.
func (l *Ledger) Chain(down *Ledger) {
	l.AddTap(down)
	down.up = l
}

// Unchain undoes Chain.
func (l *Ledger) Unchain(down *Ledger) {
	l.RemoveTap(down)
	down.up = nil
}

// TapBatch folds a block an upstream ledger folded (see Chain).
func (l *Ledger) TapBatch(events []Event) { l.Record(events) }

// Sync flushes every hierarchy holding buffered events for this ledger (or,
// when chained, for the ledger above it). No-op when nothing is buffered.
func (l *Ledger) Sync() {
	if l.up != nil {
		l.up.Sync()
	}
	l.Sources.Sync()
}

func (l *Ledger) addStream(s *StreamRecorder) {
	l.mu.Lock()
	s.start, s.base = l.total, l.total
	l.streams = append(l.streams, s)
	l.rearmLocked()
	l.mu.Unlock()
}

func (l *Ledger) removeStream(s *StreamRecorder) {
	l.mu.Lock()
	l.streams = remove(l.streams, s)
	l.rearmLocked()
	l.mu.Unlock()
}

func remove[T comparable](s []T, x T) []T {
	for i := range s {
		if s[i] == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// WantsSpans reports whether some reader builds on span marks: the span tap
// or a span-interested tap.
func (l *Ledger) WantsSpans() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.span != nil {
		return true
	}
	for _, t := range l.taps {
		if si, ok := t.(SpanInterest); ok && si.WantsSpans() {
			return true
		}
	}
	return false
}

// Record folds a block under one lock acquisition, then hands it to the
// taps. It never syncs: a hierarchy's flush calls it, and a caller that
// records directly while attached hierarchies may still hold buffered
// events (krylov's Traffic into a profiler's span tree) calls Sync first,
// or it overtakes them.
func (l *Ledger) Record(events []Event) {
	l.mu.Lock()
	l.deliverLocked(events)
	l.unlock()
}

// unlock releases the lock, then writes the stream records cut under it,
// in the order they were cut.
func (l *Ledger) unlock() {
	recs := l.pending
	l.pending = nil
	l.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		// The writer keeps its first error; the stream's Close and Err
		// report it.
		_ = r.s.sw.Emit(r.phase, r.events, r.total, r.cum, r.final)
	}
}

func (l *Ledger) deliverLocked(events []Event) {
	l.fold(events)
	for _, t := range l.taps {
		t.TapBatch(events)
	}
}

// fold is the one counter fold: marks go to the span tap, counter-bearing
// events into the counters, and a stream record is cut whenever the event
// total reaches the nearest stream's next N-th event.
func (l *Ledger) fold(events []Event) {
	g := l.g
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvBegin:
			if l.span != nil {
				l.span.SpanBegin(e.Label)
			}
			continue
		case EvEnd:
			if l.span != nil {
				l.span.SpanEnd()
			}
			continue
		}
		g.fold(e)
		l.total++
		if l.total == l.nextCut {
			l.cutLocked()
		}
	}
}

// cutLocked emits a record for every periodic stream whose N-th event since
// its last record was just folded.
func (l *Ledger) cutLocked() {
	for _, s := range l.streams {
		if s.every > 0 && !s.closed && l.total-s.base >= s.every {
			l.emitLocked(s, false)
		}
	}
	l.rearmLocked()
}

// rearmLocked recomputes the event total at which the next record is due.
func (l *Ledger) rearmLocked() {
	l.nextCut = math.MaxInt64
	for _, s := range l.streams {
		if s.every > 0 && !s.closed {
			l.nextCut = min(l.nextCut, s.base+s.every)
		}
	}
}

// emitLocked cuts s's record of the events since its last one, under the
// running phase label; unlock writes it.
func (l *Ledger) emitLocked(s *StreamRecorder, final bool) {
	l.pending = append(l.pending, cutRecord{
		s: s, phase: l.phase, events: l.total - s.base, total: l.total - s.start,
		cum: l.g.Snapshot(), final: final,
	})
	s.base = l.total
}

// Phase closes the running phase and labels subsequent events with name.
// Buffered events are synced in first, so a phase covers exactly the events
// emitted under its label. Every stream with pending events emits a record
// under the old label; the closed phase (if it carried events) becomes the
// last closed one, and then every observer is told, in subscription order.
func (l *Ledger) Phase(name string) {
	l.Sync()
	l.mu.Lock()
	for _, s := range l.streams {
		if !s.closed && l.total > s.base {
			l.emitLocked(s, false)
		}
	}
	l.rearmLocked()
	p := l.closeLocked()
	l.phase = name
	obs := l.observers
	l.unlock()
	for _, o := range obs {
		o.PhaseClosed(p)
	}
}

// Finish closes the running phase without opening another (the run's last
// boundary) and tells the observers. Streams are left alone: their final
// record is cut by their own Close.
func (l *Ledger) Finish() {
	l.Sync()
	l.mu.Lock()
	p := l.closeLocked()
	obs := l.observers
	l.mu.Unlock()
	for _, o := range obs {
		o.PhaseClosed(p)
	}
}

// closeLocked closes the running phase and returns it (nil if it carried no
// counter-bearing events).
func (l *Ledger) closeLocked() *PhaseDelta {
	n := l.total - l.mark
	if n == 0 {
		return nil
	}
	l.scratch.setDiff(l.g.cur, l.prev)
	l.closed = &PhaseDelta{Kernel: l.phase, Events: n, Delta: l.g.render(l.scratch)}
	l.prev.copyFrom(l.g.cur)
	l.mark = l.total
	return l.closed
}

// Snapshot returns the cumulative snapshot. Safe from any goroutine; it
// does not sync.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.g.Snapshot()
}

// Events returns the counter-bearing events folded so far. Safe from any
// goroutine; it does not sync.
func (l *Ledger) Events() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// PhaseState is the ledger's phase context at one instant.
type PhaseState struct {
	Phase      string      // the running phase's label
	Closed     *PhaseDelta // a copy of the last phase that closed with events; nil before the first
	Cumulative Snapshot
}

// State reads the phase context under one lock acquisition and calls with
// before releasing it.
// Delivery takes the ledger's lock before any tap's, so a tap may take its
// own lock inside with and read its state at the same instant: a flight
// ring's window then agrees with the counters it is frozen beside. Safe
// from any goroutine; it does not sync.
func (l *Ledger) State(with func()) PhaseState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := PhaseState{Phase: l.phase, Cumulative: l.g.Snapshot()}
	if l.closed != nil {
		cp := *l.closed
		st.Closed = &cp
	}
	with()
	return st
}

// The accessors below read the fold without locking or syncing. They are
// for span taps, which call them from inside the fold, and for the run
// goroutine that drives the ledger.

// Counters returns the cumulative counter set (not a copy).
func (l *Ledger) Counters() *CounterSet { return l.g.cur }

// Clock returns the counter-bearing events folded so far: the deterministic
// clock span trees are stamped with.
func (l *Ledger) Clock() int64 { return l.total }

// Levels returns the current level list (not a copy; do not mutate).
func (l *Ledger) Levels() []Level { return l.g.levels }

// Between returns the interface names of the current geometry, built once
// per geometry (not a copy; do not mutate).
func (l *Ledger) Between() []string { return l.g.between }

// Render renders c, which has at most as many levels as the ledger has
// seen, under the ledger's level and interface names.
func (l *Ledger) Render(c *CounterSet) Snapshot { return l.g.render(c) }
