package machine

// This file is the event layer of the machine model: every primitive a
// Hierarchy executes (Load, Store, Init, Discard, Flops, and the Begin/End
// span marks) is described by an Event value and dispatched to any number of
// Recorder sinks. The default sink is a CounterSet, which keeps the
// per-interface and per-level counters the paper's bounds are stated in; the
// other sink in this package is the Ledger, one locked fold that every
// observing sink (JSON-line streams, phase monitors, span trees, flight
// rings) reads.

// EventKind identifies a machine primitive.
type EventKind uint8

const (
	// EvLoad moves Words across interface Arg, slow to fast.
	EvLoad EventKind = iota
	// EvStore moves Words across interface Arg, fast to slow.
	EvStore
	// EvInit begins an R2 residency of Words in level Arg.
	EvInit
	// EvDiscard ends a D2 residency of Words in level Arg.
	EvDiscard
	// EvFlops records Words arithmetic operations (no data movement).
	EvFlops
	// EvBegin opens a named span: subsequent events up to the matching
	// EvEnd belong to the phase in Label. Spans nest; counters ignore
	// them, attribution recorders (profile.SpanRecorder) build trees.
	EvBegin
	// EvEnd closes the innermost open span.
	EvEnd
)

func (k EventKind) String() string {
	switch k {
	case EvLoad:
		return "Load"
	case EvStore:
		return "Store"
	case EvInit:
		return "Init"
	case EvDiscard:
		return "Discard"
	case EvFlops:
		return "Flops"
	case EvBegin:
		return "Begin"
	case EvEnd:
		return "End"
	}
	return "?"
}

// Event is one machine primitive. It is a small value type so dispatch does
// not allocate.
type Event struct {
	Kind EventKind
	// Remote marks an EvLoad/EvStore that crosses the inter-socket link of
	// a multi-socket Topology. It is a classification, not a new traffic
	// class: a remote load still bumps LoadWords/LoadMsgs exactly like a
	// local one, and additionally bumps the Remote* sub-counter, so totals
	// are placement-invariant and local traffic is total - remote.
	Remote bool
	Arg    int    // interface index (EvLoad/EvStore) or level index (EvInit/EvDiscard)
	Words  int64  // words moved, or the flop count for EvFlops
	Label  string // span name, EvBegin only
}

// Recorder consumes the event stream of a Hierarchy, one block at a time:
// Record gets the events in emission order, and a single event is a
// one-element block. The slice belongs to the caller and is overwritten
// after Record returns, so a recorder must not retain it. Record is called
// synchronously from the emitting goroutine; a recorder shared across
// goroutines must synchronize internally (see Ledger).
type Recorder interface {
	Record(events []Event)
}

// SpanInterest is an optional Recorder refinement for EvBegin/EvEnd span
// marks: recorders that build phase attribution from them return true from
// WantsSpans. Marks are dispatched to every recorder regardless (they are
// ignored by counters), but Hierarchy.Marking lets the algorithm drivers
// skip formatting span labels entirely when no attribution recorder is
// attached.
type SpanInterest interface {
	WantsSpans() bool
}

// CounterSet is the default recorder: the per-interface traffic and per-level
// residency counters of the paper's model. It is also the merge target of a
// dist machine's per-rank counters and the unit wabench snapshots are built
// from.
//
// Occupancy is tracked non-strictly here (clamped at zero); the strict
// overflow/underflow validation lives in Hierarchy, which checks around the
// dispatch so attached recorders never see an invalid event.
type CounterSet struct {
	Iface     []InterfaceCounters // len = levels-1
	Lvl       []LevelCounters     // len = levels
	FlopCount int64
}

// NewCounterSet returns a zeroed counter set for a machine with the given
// number of levels.
func NewCounterSet(levels int) *CounterSet {
	return &CounterSet{
		Iface: make([]InterfaceCounters, levels-1),
		Lvl:   make([]LevelCounters, levels),
	}
}

// Record accumulates a block of events in order.
func (c *CounterSet) Record(events []Event) {
	for i := range events {
		c.record(&events[i])
	}
}

// record accumulates one event: the per-event fold behind Record, which the
// hierarchy's default counters and the ledger call directly.
func (c *CounterSet) record(e *Event) {
	switch e.Kind {
	case EvLoad:
		c.Iface[e.Arg].LoadWords += e.Words
		c.Iface[e.Arg].LoadMsgs++
		if e.Remote {
			c.Iface[e.Arg].RemoteLoadWords += e.Words
		}
		c.bump(e.Arg, e.Words)
	case EvStore:
		c.Iface[e.Arg].StoreWords += e.Words
		c.Iface[e.Arg].StoreMsgs++
		if e.Remote {
			c.Iface[e.Arg].RemoteStoreWords += e.Words
		}
		c.bump(e.Arg, -e.Words)
	case EvInit:
		c.Lvl[e.Arg].InitWords += e.Words
		c.bump(e.Arg, e.Words)
	case EvDiscard:
		c.Lvl[e.Arg].DiscardWords += e.Words
		c.bump(e.Arg, -e.Words)
	case EvFlops:
		c.FlopCount += e.Words
	}
}

func (c *CounterSet) bump(level int, delta int64) {
	lc := &c.Lvl[level]
	lc.Occupancy += delta
	if lc.Occupancy < 0 {
		lc.Occupancy = 0
	}
	if lc.Occupancy > lc.PeakOccupancy {
		lc.PeakOccupancy = lc.Occupancy
	}
}

// Reset zeroes every counter.
func (c *CounterSet) Reset() {
	for i := range c.Iface {
		c.Iface[i] = InterfaceCounters{}
	}
	for i := range c.Lvl {
		c.Lvl[i] = LevelCounters{}
	}
	c.FlopCount = 0
}

// Add accumulates other into c (ignoring occupancy, which is not additive).
func (c *CounterSet) Add(other *CounterSet) {
	for i := range c.Iface {
		c.Iface[i].LoadWords += other.Iface[i].LoadWords
		c.Iface[i].LoadMsgs += other.Iface[i].LoadMsgs
		c.Iface[i].StoreWords += other.Iface[i].StoreWords
		c.Iface[i].StoreMsgs += other.Iface[i].StoreMsgs
		c.Iface[i].RemoteLoadWords += other.Iface[i].RemoteLoadWords
		c.Iface[i].RemoteStoreWords += other.Iface[i].RemoteStoreWords
	}
	for i := range c.Lvl {
		c.Lvl[i].InitWords += other.Lvl[i].InitWords
		c.Lvl[i].DiscardWords += other.Lvl[i].DiscardWords
	}
	c.FlopCount += other.FlopCount
}
