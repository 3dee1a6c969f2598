// Package flight is the black-box layer of the event engine: an always-on,
// allocation-free recorder that keeps the tail of the event stream — the
// last N events, the open span stack, the running phase delta — in a
// fixed-capacity ring, so that when a conformance check fails (or an
// operator asks) the machine's recent history can be frozen into an
// immutable forensic bundle instead of being gone with the counters.
//
// The Recorder rides the batched engine natively: RecordBatch copies a
// block into the ring under one lock acquisition, span marks maintain the
// stack in place, and the counter-bearing events fold into a
// machine.GrowingCounters exactly the way monitor.Monitor folds them — so
// the phase delta a frozen bundle carries is word-for-word the delta the
// monitor's check evaluated, provided Phase is driven with the same marks
// (experiments.Mark does both, flight first). Steady state allocates
// nothing per event: the ring storage, the stack backing array, and the
// counters are all preallocated or grow-once.
//
// Exactness invariants, pinned by the package tests:
//
//   - The ring's decoded tail is bit-identical to the trailing events the
//     per-event reference engine (batch capacity 1) delivers to an
//     identically-interested recorder. Batching never changes which events
//     the black box holds, only when they arrived.
//   - The last closed phase's Delta equals cum.Sub(prev) over exactly the
//     events recorded under that phase label — the same telescoping-group
//     arithmetic (and, with the default touchless interest, the same event
//     set) as the monitor's check input.
//   - Capture never loses the drop count: TotalEvents - len(Events) events
//     were overwritten, and the bundle says so rather than pretending the
//     window is complete.
package flight

import (
	"sync"

	"writeavoid/internal/machine"
)

// DefaultEvents is the ring capacity New uses for values < 1: enough tail
// to hold several batches of context around a violation while staying a few
// tens of KB per hierarchy.
const DefaultEvents = 1024

// Recorder is the flight recorder: a machine.Recorder/BatchRecorder keeping
// the last N events in a ring plus the open span stack and the running
// phase context. It is internally locked — smp.RunParallel delivers batches
// from many goroutines at once, and captures may come from HTTP handlers —
// with one lock round-trip per batch, not per event. Like monitor.Monitor
// it embeds a dirty-source set that only the run goroutine drives
// (Phase/Capture); concurrent readers use Peek, which accepts batch
// granularity instead of syncing.
type Recorder struct {
	// sources tracks hierarchies holding buffered events for this recorder;
	// driven only from the run goroutine (Phase, Capture).
	sources machine.Sources

	mu    sync.Mutex
	ring  []machine.Event // fixed capacity len(ring) == cap
	pos   int             // next write index
	n     int             // occupancy, <= len(ring)
	seq   int64           // events ever appended (ring sequence numbers)
	stack []string        // open span labels, innermost last

	g      *machine.GrowingCounters
	prev   machine.Snapshot // basis of the running phase delta
	phase  string           // running phase label
	events int64            // counter-bearing events in the running phase
	closed *PhaseDelta      // last closed event-carrying phase

	captures int64
	touch    bool
}

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithTouch opts the recorder into the dense per-element EvTouch/EvRange
// stream. Off by default: the black box then sees exactly the event set the
// monitor sees, which keeps phase deltas bit-identical to the monitor's
// check inputs (touch tallies included would differ — the monitor never
// subscribes).
func WithTouch() Option { return func(r *Recorder) { r.touch = true } }

// New builds a flight recorder whose ring holds capacity events (values < 1
// get DefaultEvents), seeded with the given counter geometry (nil grows on
// demand like the monitor's).
func New(capacity int, levels []machine.Level, opts ...Option) *Recorder {
	if capacity < 1 {
		capacity = DefaultEvents
	}
	r := &Recorder{
		ring:  make([]machine.Event, capacity),
		stack: make([]string, 0, 16),
		g:     machine.NewGrowingCounters(levels),
	}
	r.prev = r.g.Snapshot()
	for _, o := range opts {
		o(r)
	}
	return r
}

// WantsSpans opts into EvBegin/EvEnd so the ring holds the marks and the
// stack tracks them.
func (r *Recorder) WantsSpans() bool { return true }

// WantsTouch reports the configured touch interest (see WithTouch).
func (r *Recorder) WantsTouch() bool { return r.touch }

// SourceDirty and SourceClean track hierarchies with buffered events (run
// goroutine only; see the sources field).
func (r *Recorder) SourceDirty(f machine.Flusher) { r.sources.SourceDirty(f) }
func (r *Recorder) SourceClean(f machine.Flusher) { r.sources.SourceClean(f) }

// Record appends one event.
func (r *Recorder) Record(e machine.Event) {
	r.mu.Lock()
	r.record(e)
	r.mu.Unlock()
}

// RecordBatch appends a block of events under one lock acquisition — the
// steady-state fast path: a ring slot copy, a stack push/pop, and a counter
// fold per event, no allocation.
func (r *Recorder) RecordBatch(events []machine.Event) {
	r.mu.Lock()
	for i := range events {
		r.record(events[i])
	}
	r.mu.Unlock()
}

// record is the per-event body; callers hold mu.
func (r *Recorder) record(e machine.Event) {
	r.ring[r.pos] = e
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
	}
	if r.n < len(r.ring) {
		r.n++
	}
	r.seq++
	switch e.Kind {
	case machine.EvBegin:
		r.stack = append(r.stack, e.Label)
	case machine.EvEnd:
		// Pop-if-nonempty: under concurrent direct delivery (smp workers
		// recording straight into a shared flight recorder) cross-worker
		// interleaving makes the stack best-effort; it must stay bounded
		// and race-free, not meaningful.
		if len(r.stack) > 0 {
			r.stack = r.stack[:len(r.stack)-1]
		}
	case machine.EvRange:
		// annotation only: in the ring, not in the counters
	default:
		r.g.Record(e)
		r.events++
	}
}

// Phase closes the running phase and labels subsequent events with name,
// mirroring monitor.Monitor.Phase exactly: buffered events are synced in
// first, and a phase that carried no counter-bearing events closes silently
// (the last closed delta keeps pointing at the last phase that did). Drive
// it with the same marks as the monitor, flight first, and the last closed
// delta is always the delta the monitor is about to evaluate. Run goroutine
// only.
func (r *Recorder) Phase(name string) {
	r.sources.Sync()
	r.mu.Lock()
	r.closePhaseLocked()
	r.phase = name
	r.mu.Unlock()
}

// Finish closes the running phase without opening another, mirroring
// monitor.Monitor.Finish: called just before the monitor's Finish, it makes
// the last closed delta the run's last phase, the one that Finish evaluates.
// Run goroutine only.
func (r *Recorder) Finish() {
	r.sources.Sync()
	r.mu.Lock()
	r.closePhaseLocked()
	r.mu.Unlock()
}

func (r *Recorder) closePhaseLocked() {
	if r.events == 0 {
		return
	}
	cum := r.g.Snapshot()
	r.closed = &PhaseDelta{
		Kernel: r.phase,
		Events: r.events,
		Delta:  cum.Sub(r.prev),
	}
	r.prev = cum
	r.events = 0
}

// Capture syncs buffered events in and freezes the current ring state into
// an immutable Window. Run goroutine only (it syncs); concurrent readers
// use Peek.
func (r *Recorder) Capture(reason string) *Window {
	r.sources.Sync()
	return r.Peek(reason)
}

// Peek freezes the ring state without syncing hierarchy buffers: safe from
// any goroutine, at batch rather than event granularity (the same
// momentary-snapshot semantics the monitor's live reads have).
func (r *Recorder) Peek(reason string) *Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.captures++
	w := &Window{
		Reason:      reason,
		Phase:       r.phase,
		SpanStack:   append([]string(nil), r.stack...),
		TotalEvents: r.seq,
		Dropped:     r.seq - int64(r.n),
		FirstSeq:    r.seq - int64(r.n) + 1,
		Cumulative:  r.g.Snapshot(),
		Events:      make([]EventRecord, 0, r.n),
	}
	if r.closed != nil {
		c := *r.closed
		w.Closed = &c
	}
	// Oldest event lives at pos when the ring wrapped, at 0 otherwise.
	start := 0
	if r.n == len(r.ring) {
		start = r.pos
	}
	for i := 0; i < r.n; i++ {
		e := r.ring[(start+i)%len(r.ring)]
		w.Events = append(w.Events, Decode(w.FirstSeq+int64(i), e))
	}
	return w
}

// Stats is the recorder's live accounting — what the wa_flight_* metric
// families export.
type Stats struct {
	Capacity    int   `json:"capacity"`
	Len         int   `json:"len"`         // ring occupancy
	TotalEvents int64 `json:"totalEvents"` // events ever appended
	Dropped     int64 `json:"dropped"`     // events overwritten (total - occupancy)
	Captures    int64 `json:"captures"`    // Capture/Peek calls
}

// Stats returns the live accounting. Safe from any goroutine.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Capacity:    len(r.ring),
		Len:         r.n,
		TotalEvents: r.seq,
		Dropped:     r.seq - int64(r.n),
		Captures:    r.captures,
	}
}
