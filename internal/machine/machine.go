// Package machine implements the explicit memory-hierarchy model of Section 2
// of "Write-Avoiding Algorithms" (Carson et al., 2015).
//
// A Hierarchy is an ordered list of levels, fastest first: level 0 is the
// highest level (e.g. L1), level len-1 the lowest and largest (e.g. DRAM or
// NVM). Interface i sits between level i and level i+1. Following the paper:
//
//   - a Load across interface i reads words from level i+1 and writes them to
//     level i;
//   - a Store across interface i reads words from level i and writes them to
//     level i+1;
//   - arithmetic touches only the fastest level and causes no interface
//     traffic.
//
// Every primitive is dispatched as an Event to pluggable Recorder sinks (see
// event.go). The default sink is a CounterSet holding word-granularity
// counters per interface and per direction — exactly the accounting the
// paper's lower bounds and write-avoiding algorithms are stated in. Further
// recorders (a Ledger, which the observing sinks read) can be attached to
// the same event stream. The hierarchy also tracks per-level occupancy so
// tests can verify that an algorithm's working set honestly fits in the fast
// memory it claims to use, and classifies every residency into the paper's
// R1/R2 x D1/D2 taxonomy.
package machine

import (
	"fmt"
	"strings"
)

// Level describes one memory level.
type Level struct {
	Name string
	// Size is the capacity in words. Size <= 0 means unbounded (the
	// lowest level, or a level whose capacity is irrelevant to the
	// experiment).
	Size int64
}

// InterfaceCounters accumulates traffic across one interface (between level i
// and level i+1).
type InterfaceCounters struct {
	LoadWords  int64 // words moved slow->fast (each word: read slow, write fast)
	LoadMsgs   int64 // number of Load operations (messages)
	StoreWords int64 // words moved fast->slow (each word: read fast, write slow)
	StoreMsgs  int64
	// Remote sub-counters: the share of LoadWords/StoreWords that crossed
	// the inter-socket link of a multi-socket Topology. Always <= the
	// corresponding total (local traffic is total - remote); zero on a flat
	// machine.
	RemoteLoadWords  int64
	RemoteStoreWords int64
}

// LevelCounters accumulates per-level residency bookkeeping.
type LevelCounters struct {
	InitWords     int64 // R2 residency beginnings: words created in-level by computation
	DiscardWords  int64 // D2 residency endings: words dropped without a store
	Occupancy     int64 // words currently resident
	PeakOccupancy int64
}

// attached is one subscribed recorder with its interests resolved once at
// Attach time, so neither the flush loop nor Detach asks the recorder again.
type attached struct {
	rec   Recorder
	aware BatchAware // non-nil when rec tracks dirty sources
	spans bool       // wants span marks (counted in marking)
}

// Hierarchy is a concrete machine with explicit, programmer-controlled data
// movement. The zero value is not usable; construct with New.
//
// Events for attached recorders are buffered and delivered in blocks (see
// batch.go): the default counters (Counters, WritesTo, strict occupancy
// checks) are always exact, but an attached recorder only sees events at
// flush boundaries — batch capacity, Attach/Detach/Reset, an explicit Flush,
// or a Sync issued by the recorder's own read/mark methods. Recorder-side
// state read between flushes without one of those is a torn prefix; the
// built-in recorders all Sync themselves.
type Hierarchy struct {
	levels  []Level
	def     *CounterSet // default recorder, always present and unbuffered
	recs    []attached  // additional attached recorders
	marking int         // count of attached recorders that want span marks
	strict  bool
	topo    Topology // socket dimension; zero value = flat machine

	batchCap int     // buffer capacity; >= 1
	batch    []Event // pending events for attached recorders (lazily allocated)
	flushing bool    // re-entrancy guard: Sync during delivery must not recurse
}

// New builds a hierarchy from levels listed fastest first. With strict
// enabled, occupancy overflow and underflow panic instead of being recorded,
// which is what the tests use to prove block-size choices actually fit.
func New(strict bool, levels ...Level) *Hierarchy {
	if len(levels) < 2 {
		panic("machine: a hierarchy needs at least two levels")
	}
	h := &Hierarchy{
		levels:   append([]Level(nil), levels...),
		def:      NewCounterSet(len(levels)),
		strict:   strict,
		batchCap: DefaultBatchEvents,
	}
	// The lowest level starts holding the problem data; occupancy tracking
	// there is not meaningful, so it is left unbounded by convention.
	return h
}

// TwoLevel is the common two-level machine of the paper's Section 4: a fast
// memory of m words ("L1") over an unbounded slow memory ("L2").
func TwoLevel(m int64) *Hierarchy {
	return New(true, Level{Name: "fast", Size: m}, Level{Name: "slow"})
}

// NumLevels returns the number of levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// LevelInfo returns the static description of level i.
func (h *Hierarchy) LevelInfo(i int) Level { return h.levels[i] }

// Attach subscribes a recorder to the hierarchy's event stream. Events are
// buffered and delivered in attach order at flush boundaries, after the
// default counters are updated and after strict validation, so recorders only
// ever see valid programs. Pending events are flushed first, so a newly
// attached recorder sees nothing from before its attachment.
func (h *Hierarchy) Attach(r Recorder) {
	h.Flush()
	a := attached{rec: r}
	a.aware, _ = r.(BatchAware)
	if si, ok := r.(SpanInterest); ok && si.WantsSpans() {
		a.spans = true
		h.marking++
	}
	h.recs = append(h.recs, a)
}

// Detach unsubscribes a previously attached recorder, flushing pending events
// to it (and everyone else) first. It undoes the interests the recorder
// declared when it was attached, whatever the recorder would answer now.
func (h *Hierarchy) Detach(r Recorder) {
	h.Flush()
	for i := range h.recs {
		if h.recs[i].rec == r {
			if h.recs[i].spans {
				h.marking--
			}
			h.recs = append(h.recs[:i], h.recs[i+1:]...)
			return
		}
	}
}

// Marking reports whether any attached recorder builds span attribution.
// Drivers use it to skip formatting span labels in hot loops when nobody is
// listening; Begin/End themselves always dispatch.
func (h *Hierarchy) Marking() bool { return h.marking > 0 }

// Begin opens a named span: subsequent events up to the matching End are
// attributed to the phase `name` by span-aware recorders (the default
// counters and the stream recorders ignore marks, so word counts are
// identical with or without instrumentation). Spans nest arbitrarily; the
// algorithm drivers mark panel/update/trsm phases and parallel supersteps
// this way.
func (h *Hierarchy) Begin(name string) {
	h.dispatch(Event{Kind: EvBegin, Label: name})
}

// End closes the innermost span opened by Begin.
func (h *Hierarchy) End() {
	h.dispatch(Event{Kind: EvEnd})
}

// dispatch records an event in the default counters and buffers it for the
// attached recorders.
func (h *Hierarchy) dispatch(e Event) {
	h.def.record(&e)
	if len(h.recs) == 0 {
		return
	}
	n := len(h.batch)
	if n == 0 || n+1 >= h.batchCap {
		h.pushEdge(e)
		return
	}
	h.batch = h.batch[:n+1]
	h.batch[n] = e
}

// pushEdge handles the batch-boundary cases dispatch keeps off its manually
// unrolled fast path (it writes the buffer slot in place when the buffer is
// non-empty and this event does not fill it — the event stream runs millions
// of events per experiment, and a call frame plus a second 40-byte Event copy
// per event shows up directly in wall time). This slow path covers the lazy
// first allocation, dirty-marking on the empty->non-empty transition, and the
// flush when this event reaches capacity.
func (h *Hierarchy) pushEdge(e Event) {
	if h.batch == nil {
		if h.batchCap == DefaultBatchEvents {
			h.batch = batchPool.Get().(*[DefaultBatchEvents]Event)[:0]
		} else {
			h.batch = make([]Event, 0, h.batchCap)
		}
	}
	h.batch = append(h.batch, e)
	if len(h.batch) == 1 {
		for i := range h.recs {
			if h.recs[i].aware != nil {
				h.recs[i].aware.SourceDirty(h)
			}
		}
	}
	if len(h.batch) >= h.batchCap {
		h.Flush()
	}
}

// Flush delivers every buffered event to the attached recorders, in attach
// order: one Record call per recorder with the block in emission order. It
// never syncs. Safe to call any time; a no-op when nothing is buffered or
// when called re-entrantly from inside a delivery.
func (h *Hierarchy) Flush() {
	if h.flushing || len(h.batch) == 0 {
		return
	}
	h.flushing = true
	for i := range h.recs {
		h.recs[i].rec.Record(h.batch)
	}
	h.batch = h.batch[:0]
	for i := range h.recs {
		if h.recs[i].aware != nil {
			h.recs[i].aware.SourceClean(h)
		}
	}
	h.flushing = false
}

// Release flushes the event buffer and, once it is drained, hands a
// default-capacity buffer back for other hierarchies to take; this one takes
// a buffer again on its next buffered event. Call it when a hierarchy stops
// recording for a while, as a dist rank does when its Run body returns.
func (h *Hierarchy) Release() {
	h.Flush()
	if len(h.batch) > 0 {
		return // inside a delivery: the buffer is still in use
	}
	if cap(h.batch) == DefaultBatchEvents {
		batchPool.Put((*[DefaultBatchEvents]Event)(h.batch[:DefaultBatchEvents]))
	}
	h.batch = nil
}

// SetBatchCapacity resizes the event buffer (minimum 1: every event flushes
// immediately as a one-element block, the reference delivery timing the
// differential tests pin the batched engine against). Pending events are
// flushed first. The capacity only affects WHEN attached recorders see
// events, never what they see.
func (h *Hierarchy) SetBatchCapacity(n int) {
	h.Flush()
	if n < 1 {
		n = 1
	}
	h.batchCap = n
	h.batch = nil
}

// Load moves words from level i+1 into level i across interface i as one
// message.
func (h *Hierarchy) Load(iface int, words int64) {
	h.load(iface, words, false)
}

// LoadRemote is Load for words whose home is another socket: the same
// message and word counters move (totals are placement-invariant), and the
// interface's RemoteLoadWords sub-counter records the share that crossed the
// inter-socket link.
func (h *Hierarchy) LoadRemote(iface int, words int64) {
	h.load(iface, words, true)
}

func (h *Hierarchy) load(iface int, words int64, remote bool) {
	h.checkIface(iface)
	if words < 0 {
		panic("machine: negative Load")
	}
	if words == 0 {
		return
	}
	h.dispatch(Event{Kind: EvLoad, Arg: iface, Words: words, Remote: remote})
	h.checkOverflow(iface)
}

// Store moves words from level i into level i+1 across interface i as one
// message, ending their residency in level i (a D1 ending).
func (h *Hierarchy) Store(iface int, words int64) {
	h.store(iface, words, false)
}

// StoreRemote is Store toward another socket's memory: same totals, plus the
// RemoteStoreWords sub-counter. Remote stores are the expensive direction on
// asymmetric links (CostParams.BetaRemoteStore), which is what makes
// write-avoidance pay twice on a NUMA machine.
func (h *Hierarchy) StoreRemote(iface int, words int64) {
	h.store(iface, words, true)
}

func (h *Hierarchy) store(iface int, words int64, remote bool) {
	h.checkIface(iface)
	if words < 0 {
		panic("machine: negative Store")
	}
	if words == 0 {
		return
	}
	h.checkUnderflow(iface, words)
	h.dispatch(Event{Kind: EvStore, Arg: iface, Words: words, Remote: remote})
}

// Init begins an R2 residency: words are created in level i by computation
// (e.g. zeroing an accumulator) without touching slower levels.
func (h *Hierarchy) Init(level int, words int64) {
	h.checkLevel(level)
	if words < 0 {
		panic("machine: negative Init")
	}
	if words == 0 {
		return
	}
	h.dispatch(Event{Kind: EvInit, Arg: level, Words: words})
	h.checkOverflow(level)
}

// Discard ends a D2 residency: words in level i are dropped without a store.
func (h *Hierarchy) Discard(level int, words int64) {
	h.checkLevel(level)
	if words < 0 {
		panic("machine: negative Discard")
	}
	if words == 0 {
		return
	}
	h.checkUnderflow(level, words)
	h.dispatch(Event{Kind: EvDiscard, Arg: level, Words: words})
}

// Flops records arithmetic work (no data movement).
func (h *Hierarchy) Flops(n int64) {
	if n == 0 {
		return
	}
	h.dispatch(Event{Kind: EvFlops, Words: n})
}

// FlopCount returns the accumulated arithmetic count.
func (h *Hierarchy) FlopCount() int64 { return h.def.FlopCount }

// Counters returns the hierarchy's default counter set. The pointer stays
// valid across operations; Reset zeroes it in place.
func (h *Hierarchy) Counters() *CounterSet { return h.def }

// Interface returns a copy of the counters for interface i.
func (h *Hierarchy) Interface(i int) InterfaceCounters {
	h.checkIface(i)
	return h.def.Iface[i]
}

// LevelCounters returns a copy of the residency counters for level i.
func (h *Hierarchy) LevelCounters(i int) LevelCounters {
	h.checkLevel(i)
	return h.def.Lvl[i]
}

// WritesTo returns the number of words written INTO level i from any
// direction: loads arriving from below (interface i), stores arriving from
// above (interface i-1), and in-level R2 initializations. This is the
// quantity the paper's write lower bounds are about.
func (h *Hierarchy) WritesTo(i int) int64 {
	h.checkLevel(i)
	w := h.def.Lvl[i].InitWords
	if i < len(h.def.Iface) {
		w += h.def.Iface[i].LoadWords // load across interface i writes level i
	}
	if i > 0 {
		w += h.def.Iface[i-1].StoreWords // store across interface i-1 writes level i
	}
	return w
}

// ReadsFrom returns the number of words read FROM level i: loads departing to
// the level above (interface i-1) and stores departing to the level below
// (interface i).
func (h *Hierarchy) ReadsFrom(i int) int64 {
	h.checkLevel(i)
	var r int64
	if i > 0 {
		r += h.def.Iface[i-1].LoadWords // load across interface i-1 reads level i
	}
	if i < len(h.def.Iface) {
		r += h.def.Iface[i].StoreWords // store across interface i reads level i
	}
	return r
}

// Traffic returns total words moved across interface i in both directions.
func (h *Hierarchy) Traffic(i int) int64 {
	h.checkIface(i)
	return h.def.Iface[i].LoadWords + h.def.Iface[i].StoreWords
}

// Theorem1Holds checks the paper's Theorem 1 at interface i: the number of
// writes to the fast side (level i) must be at least half the total loads and
// stores crossing the interface. In this explicit model writes to the fast
// side are loads plus R2 initializations.
func (h *Hierarchy) Theorem1Holds(i int) bool {
	h.checkIface(i)
	writesFast := h.def.Iface[i].LoadWords + h.def.Lvl[i].InitWords
	return 2*writesFast >= h.Traffic(i)
}

// ResidencyBalanced reports whether, for level i, every residency that began
// (R1 loads in + R2 inits) has either ended (D1 stores out + D2 discards) or
// is still resident. Stores departing downward and loads departing upward do
// not end residency of level i in this simplified accounting, so balance is
// checked only against interface i (below) traffic, which is how the
// Section 4 algorithms drive the model.
func (h *Hierarchy) ResidencyBalanced(i int) bool {
	h.checkLevel(i)
	if i >= len(h.def.Iface) {
		return true // lowest level holds everything by convention
	}
	began := h.def.Iface[i].LoadWords + h.def.Lvl[i].InitWords
	ended := h.def.Iface[i].StoreWords + h.def.Lvl[i].DiscardWords
	return began == ended+h.def.Lvl[i].Occupancy
}

// Reset zeroes the default counters but keeps the level configuration and
// attached recorders (which keep their own state, and receive any still-
// buffered pre-Reset events first).
func (h *Hierarchy) Reset() {
	h.Flush()
	h.def.Reset()
}

// Report renders all counters as an aligned table.
func (h *Hierarchy) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n", "level", "writesTo", "readsFrom", "init", "discard", "peakOcc")
	for i := range h.levels {
		fmt.Fprintf(&b, "%-8s %12d %12d %12d %12d %12d\n",
			h.levels[i].Name, h.WritesTo(i), h.ReadsFrom(i),
			h.def.Lvl[i].InitWords, h.def.Lvl[i].DiscardWords, h.def.Lvl[i].PeakOccupancy)
	}
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n", "iface", "loadWords", "loadMsgs", "storeWords", "storeMsgs")
	for i := range h.def.Iface {
		fmt.Fprintf(&b, "%s<->%-4s %12d %12d %12d %12d\n",
			h.levels[i].Name, h.levels[i+1].Name,
			h.def.Iface[i].LoadWords, h.def.Iface[i].LoadMsgs, h.def.Iface[i].StoreWords, h.def.Iface[i].StoreMsgs)
	}
	fmt.Fprintf(&b, "flops %d\n", h.def.FlopCount)
	return b.String()
}

func (h *Hierarchy) checkIface(i int) {
	if i < 0 || i >= len(h.def.Iface) {
		panic(fmt.Sprintf("machine: interface %d out of range (have %d)", i, len(h.def.Iface)))
	}
}

func (h *Hierarchy) checkLevel(i int) {
	if i < 0 || i >= len(h.levels) {
		panic(fmt.Sprintf("machine: level %d out of range (have %d)", i, len(h.levels)))
	}
}

// checkUnderflow enforces strict occupancy underflow before an event is
// dispatched, so recorders never observe an invalid program. Non-strict
// hierarchies clamp at zero inside the counter set instead.
func (h *Hierarchy) checkUnderflow(level int, words int64) {
	if !h.strict {
		return
	}
	if occ := h.def.Lvl[level].Occupancy - words; occ < 0 {
		panic(fmt.Sprintf("machine: level %s occupancy underflow (%d)", h.levels[level].Name, occ))
	}
}

// checkOverflow enforces strict capacity after an occupancy-increasing event
// has been recorded.
func (h *Hierarchy) checkOverflow(level int) {
	if !h.strict || h.levels[level].Size <= 0 {
		return
	}
	if occ := h.def.Lvl[level].Occupancy; occ > h.levels[level].Size {
		panic(fmt.Sprintf("machine: level %s overflow: occupancy %d > size %d",
			h.levels[level].Name, occ, h.levels[level].Size))
	}
}
