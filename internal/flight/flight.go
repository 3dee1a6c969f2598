// Package flight is the black-box layer of the event engine: an always-on,
// allocation-free recorder that keeps the tail of the event stream — the
// last N events, the open span stack, the running phase delta — in a
// fixed-capacity ring, so that when a conformance check fails (or an
// operator asks) the machine's recent history can be frozen into an
// immutable forensic bundle instead of being gone with the counters.
//
// The Recorder folds no counters of its own. It reads a machine.Ledger: a
// private one when built with New, whose Ledger() is then attached on its
// own, or a run's shared one (Follow), which experiments.Session gives its
// monitor, streams and histograms too. The ledger hands the ring every
// block it folds, and the phase context a capture freezes — the running
// label, the last closed phase's delta, the cumulative snapshot — is the
// ledger's. Because the ledger closes each phase once for all of its
// readers, the delta a frozen bundle carries is word-for-word the delta the
// monitor's check evaluated, whichever sink closed the phase and in
// whatever order the marks run.
//
// Ring layout: each event is kept in a 16-byte slot that holds no pointers
// (Words, a 32-bit Arg, and the kind, the remote flag and a label index
// packed into one 32-bit word); span labels live in a small table beside
// the ring, compacted when it outgrows the labels the ring still holds. A
// 4096-event ring is 64 KiB that the garbage collector never scans, and
// steady state allocates nothing per event. Arg is an interface or level
// index, which always fits 32 bits.
//
// Exactness invariants, pinned by the package tests:
//
//   - The ring's decoded tail is bit-identical to the trailing events the
//     per-event reference engine (batch capacity 1) delivers to an attached
//     recorder. Batching never changes which events the black box holds,
//     only when they arrived.
//   - The last closed phase's Delta equals cum.Sub(prev) over exactly the
//     events recorded under that phase label — the monitor's check input,
//     since both read the same ledger.
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

// slot is one ring event, 16 bytes and pointer-free so the ring is never
// scanned. meta packs the kind (low 4 bits), the remote flag (bit 4) and the
// label index (the upper 27 bits; 0 is the empty label).
type slot struct {
	words int64
	arg   int32
	meta  uint32
}

const (
	kindBits   = 4
	flagRemote = 1 << kindBits
	labelShift = kindBits + 1
	// maxLabels bounds the label table; it is compacted well before.
	maxLabels = 1 << (32 - labelShift)
)

// Recorder is the flight recorder: the last N events in a ring plus the
// open span stack, over the phase context of the ledger it reads. It is not
// a machine.Recorder: it is a tap of its ledger, which feeds the ring every
// block it folds, and attaching or recording goes through Ledger(). The
// ledger asks for span marks on its behalf (WantsSpans). It is internally
// locked — goroutines may record into one ledger at once, and captures may
// come from HTTP handlers — with one lock round-trip per batch, not per
// event. Capture syncs the ledger's batch sources, so it belongs to the run
// goroutine; concurrent readers use Peek, which accepts batch granularity
// instead.
type Recorder struct {
	led *machine.Ledger

	mu    sync.Mutex
	ring  []slot // fixed capacity len(ring) == cap
	pos   int    // next write index
	n     int    // occupancy, <= len(ring)
	seq   int64  // events ever appended (ring sequence numbers)
	stack []string

	names   []string          // label table; names[0] == ""
	index   map[string]uint32 // label -> names index
	last    string            // the most recent label and its index
	lastIdx uint32

	captures int64
}

// New builds a flight recorder whose ring holds capacity events (values < 1
// get DefaultEvents), reading a private ledger seeded with the given counter
// geometry (nil grows on demand like the monitor's).
func New(capacity int, levels []machine.Level) *Recorder {
	r := newRing(capacity)
	r.Follow(machine.NewLedger(levels))
	return r
}

func newRing(capacity int) *Recorder {
	if capacity < 1 {
		capacity = DefaultEvents
	}
	return &Recorder{ring: make([]slot, capacity), names: []string{""}}
}

// Follow makes the recorder read l from now on: l feeds the ring, and its
// phase context is what captures freeze.
func (r *Recorder) Follow(l *machine.Ledger) {
	if r.led != nil {
		r.led.RemoveTap(r)
	}
	r.led = l
	l.AddTap(r)
}

// Unfollow stops the ledger feeding the ring.
func (r *Recorder) Unfollow() { r.led.RemoveTap(r) }

// Ledger returns the ledger the recorder reads.
func (r *Recorder) Ledger() *machine.Ledger { return r.led }

// WantsSpans opts into EvBegin/EvEnd so the ring holds the marks and the
// stack tracks them.
func (r *Recorder) WantsSpans() bool { return true }

// TapBatch appends a block the ledger folded to the ring under one lock
// acquisition — the steady-state path: a slot copy and a stack push/pop
// per event, no allocation.
func (r *Recorder) TapBatch(events []machine.Event) {
	r.mu.Lock()
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case machine.EvBegin:
			r.stack = append(r.stack, e.Label)
		case machine.EvEnd:
			// Pop-if-nonempty: under concurrent direct delivery (goroutines
			// recording straight into a shared ledger) cross-goroutine
			// interleaving makes the stack best-effort; it must stay bounded
			// and race-free, not meaningful.
			if len(r.stack) > 0 {
				r.stack = r.stack[:len(r.stack)-1]
			}
		}
		r.append(e)
	}
	r.mu.Unlock()
}

// append writes one event into the next slot; callers hold mu.
func (r *Recorder) append(e *machine.Event) {
	s := slot{words: e.Words, arg: int32(e.Arg), meta: uint32(e.Kind)}
	if e.Remote {
		s.meta |= flagRemote
	}
	if e.Label != "" {
		s.meta |= r.labelIndex(e.Label) << labelShift
	}
	r.ring[r.pos] = s
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
	}
	if r.n < len(r.ring) {
		r.n++
	}
	r.seq++
}

// reset empties the ring for another ledger: the next event is sequence 1
// again, under an empty span stack and label table. The slots keep their
// stale contents, which no window reads: a window reads only the n newest.
func (r *Recorder) reset() {
	r.mu.Lock()
	r.pos, r.n, r.seq, r.captures = 0, 0, 0, 0
	r.stack = r.stack[:0]
	r.names = r.names[:1]
	clear(r.index)
	r.last, r.lastIdx = "", 0
	r.mu.Unlock()
}

// labelIndex interns a label into the table. The table is compacted to the
// labels the ring still holds once it outgrows twice the ring, so it stays
// bounded however many distinct labels a run formats.
func (r *Recorder) labelIndex(label string) uint32 {
	if label == r.last && r.lastIdx != 0 {
		return r.lastIdx
	}
	i, ok := r.index[label]
	if !ok {
		if len(r.names) > min(2*len(r.ring)+16, maxLabels/2) {
			r.compactLabels()
		}
		if r.index == nil {
			r.index = make(map[string]uint32)
		}
		i = uint32(len(r.names))
		r.names = append(r.names, label)
		r.index[label] = i
	}
	r.last, r.lastIdx = label, i
	return i
}

// compactLabels rebuilds the label table from the slots still in the ring.
func (r *Recorder) compactLabels() {
	old := r.names
	r.names = []string{""}
	r.index = make(map[string]uint32)
	for k := range r.ring[:r.n] {
		s := &r.ring[k]
		j := s.meta >> labelShift
		if j == 0 {
			continue
		}
		label := old[j]
		i, ok := r.index[label]
		if !ok {
			i = uint32(len(r.names))
			r.names = append(r.names, label)
			r.index[label] = i
		}
		s.meta = s.meta&(1<<labelShift-1) | i<<labelShift
	}
	r.last, r.lastIdx = "", 0
}

// decode renders one slot as the record a captured window holds; callers
// hold mu.
func (r *Recorder) decode(seq int64, s *slot) EventRecord {
	return EventRecord{
		Seq:    seq,
		Kind:   machine.EventKind(s.meta & (1<<kindBits - 1)).String(),
		Arg:    int(s.arg),
		Words:  s.words,
		Remote: s.meta&flagRemote != 0,
		Label:  r.names[s.meta>>labelShift],
	}
}

// Phase closes the running phase on the recorder's ledger and labels
// subsequent events with name: buffered events are synced in first, and a
// phase that carried no counter-bearing events closes silently (the last
// closed delta keeps pointing at the last phase that did). On a shared
// ledger this is every reader's phase mark. Run goroutine only.
func (r *Recorder) Phase(name string) { r.led.Phase(name) }

// Finish closes the running phase on the recorder's ledger without opening
// another. Run goroutine only.
func (r *Recorder) Finish() { r.led.Finish() }

// Capture syncs buffered events in and freezes the current ring state into
// an immutable Window. Run goroutine only (it syncs); concurrent readers
// use Peek.
func (r *Recorder) Capture(reason string) *Window {
	r.led.Sync()
	return r.Peek(reason)
}

// Peek freezes the ring state without syncing hierarchy buffers: safe from
// any goroutine, at batch rather than event granularity (the same
// momentary-snapshot semantics the monitor's live reads have). The ring is
// read under the ledger's lock, so the window's events, span stack and
// counts agree with its phase, closed delta and cumulative snapshot.
func (r *Recorder) Peek(reason string) *Window {
	w := &Window{Reason: reason}
	st := r.led.State(func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.fillLocked(w)
	})
	w.Phase, w.Closed, w.Cumulative = st.Phase, st.Closed, st.Cumulative
	return w
}

// fillLocked copies the ring's events, span stack and counts into w and
// counts the capture; callers hold mu.
func (r *Recorder) fillLocked(w *Window) {
	r.captures++
	w.SpanStack = append([]string(nil), r.stack...)
	w.TotalEvents = r.seq
	w.Dropped = r.seq - int64(r.n)
	w.FirstSeq = r.seq - int64(r.n) + 1
	w.Events = make([]EventRecord, 0, r.n)
	// Oldest event lives at pos when the ring wrapped, at 0 otherwise.
	start := 0
	if r.n == len(r.ring) {
		start = r.pos
	}
	for i := 0; i < r.n; i++ {
		w.Events = append(w.Events, r.decode(w.FirstSeq+int64(i), &r.ring[(start+i)%len(r.ring)]))
	}
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
