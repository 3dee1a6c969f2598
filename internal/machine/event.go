package machine

// This file is the event layer of the machine model: every primitive a
// Hierarchy executes (Load, Store, Init, Discard, Flops, and — when tracing —
// per-element Touch) is described by an Event value and dispatched to any
// number of Recorder sinks. The default sink is a CounterSet, which keeps the
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
	// EvTouch is a single element access at Addr (Write distinguishes the
	// direction), emitted only while a touch-interested recorder is
	// attached. Arg and Words are unused.
	EvTouch
	// EvBegin opens a named span: subsequent events up to the matching
	// EvEnd belong to the phase in Label. Spans nest; counters ignore
	// them, attribution recorders (profile.SpanRecorder) build trees.
	EvBegin
	// EvEnd closes the innermost open span.
	EvEnd
	// EvRange annotates the words of an enclosing Load or Store with one
	// contiguous address run: Arg is the interface, Addr the first word,
	// Words the run length, Write true for a Store (fast->slow). Like
	// EvTouch it is emitted only to touch-interested recorders and never
	// changes word or message counters — it tells address-attributing
	// sinks (write heatmaps) WHICH words crossed, not how many.
	EvRange
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
	case EvTouch:
		return "Touch"
	case EvBegin:
		return "Begin"
	case EvEnd:
		return "End"
	case EvRange:
		return "Range"
	}
	return "?"
}

// Event is one machine primitive. It is a small value type so dispatch does
// not allocate.
type Event struct {
	Kind  EventKind
	Arg   int    // interface index (EvLoad/EvStore/EvRange) or level index (EvInit/EvDiscard)
	Words int64  // words moved, flop count for EvFlops, or run length for EvRange
	Addr  uint64 // element address (EvTouch) or run start (EvRange)
	Write bool   // access direction, EvTouch/EvRange only
	// Remote marks an EvLoad/EvStore/EvTouch that crosses the inter-socket
	// link of a multi-socket Topology. It is a classification, not a new
	// traffic class: a remote load still bumps LoadWords/LoadMsgs exactly
	// like a local one, and additionally bumps the Remote* sub-counter, so
	// totals are placement-invariant and local traffic is total - remote.
	Remote bool
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

// TouchInterest is an optional Recorder refinement: recorders that want the
// (much denser) per-element EvTouch stream return true from WantsTouch.
// Recorders that do not implement the interface never see EvTouch, and the
// Hierarchy's Touch fast path is a no-op unless at least one attached
// recorder wants it.
type TouchInterest interface {
	WantsTouch() bool
}

// SpanInterest is the analogous refinement for EvBegin/EvEnd span marks:
// recorders that build phase attribution from them return true from
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
	Iface       []InterfaceCounters // len = levels-1
	Lvl         []LevelCounters     // len = levels
	FlopCount   int64
	TouchReads  int64 // EvTouch events with Write == false
	TouchWrites int64 // EvTouch events with Write == true
	// Remote touch sub-counters (events with Remote set); included in the
	// totals above, so local touches are TouchReads-RemoteTouchReads etc.
	RemoteTouchReads  int64
	RemoteTouchWrites int64
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
	case EvTouch:
		if e.Write {
			c.TouchWrites++
			if e.Remote {
				c.RemoteTouchWrites++
			}
		} else {
			c.TouchReads++
			if e.Remote {
				c.RemoteTouchReads++
			}
		}
	}
}

// WantsTouch opts the counter set into the EvTouch stream so TouchReads and
// TouchWrites stay meaningful when one is attached directly.
func (c *CounterSet) WantsTouch() bool { return true }

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
	c.TouchReads = 0
	c.TouchWrites = 0
	c.RemoteTouchReads = 0
	c.RemoteTouchWrites = 0
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
	c.TouchReads += other.TouchReads
	c.TouchWrites += other.TouchWrites
	c.RemoteTouchReads += other.RemoteTouchReads
	c.RemoteTouchWrites += other.RemoteTouchWrites
}
