package machine

import (
	"reflect"
	"testing"
	"unsafe"
)

// collector keeps every event it sees.
type collector struct {
	events []Event
}

func (c *collector) Record(events []Event) { c.events = append(c.events, events...) }

// Every hot path copies Events: the dispatch fast path, each hierarchy's
// batch buffer and the pooled buffers behind it. Kind and Remote share the
// first word, so an Event is five words on a 64-bit platform; a field added
// back fails here.
func TestEventIsFiveWords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d bytes, want 40", got)
	}
}

func TestTheorem1HoldsWithZeroTraffic(t *testing.T) {
	h := TwoLevel(64)
	if !h.Theorem1Holds(0) {
		t.Fatal("Theorem 1 must hold trivially (0 >= 0) before any traffic")
	}
}

func TestResetClearsFlopsAndPeakOccupancy(t *testing.T) {
	h := TwoLevel(64)
	h.Load(0, 10)
	h.Flops(99)
	h.Store(0, 10)
	if h.LevelCounters(0).PeakOccupancy != 10 || h.FlopCount() != 99 {
		t.Fatalf("precondition: peak=%d flops=%d", h.LevelCounters(0).PeakOccupancy, h.FlopCount())
	}
	h.Reset()
	if got := h.FlopCount(); got != 0 {
		t.Errorf("flops after Reset = %d, want 0", got)
	}
	lc := h.LevelCounters(0)
	if lc.PeakOccupancy != 0 || lc.Occupancy != 0 {
		t.Errorf("occupancy after Reset = %+v, want zeroed", lc)
	}
	if ic := h.Interface(0); ic != (InterfaceCounters{}) {
		t.Errorf("interface counters after Reset = %+v, want zeroed", ic)
	}
}

func TestAttachedRecorderSeesEveryPrimitive(t *testing.T) {
	h := TwoLevel(64)
	c := &collector{}
	h.Attach(c)
	h.Load(0, 4)
	h.Init(0, 2)
	h.Flops(8)
	h.Discard(0, 2)
	h.Store(0, 4)
	h.Load(0, 0) // zero ops must not dispatch
	h.Flops(0)
	h.Flush() // deliver the buffered block
	want := []Event{
		{Kind: EvLoad, Arg: 0, Words: 4},
		{Kind: EvInit, Arg: 0, Words: 2},
		{Kind: EvFlops, Words: 8},
		{Kind: EvDiscard, Arg: 0, Words: 2},
		{Kind: EvStore, Arg: 0, Words: 4},
	}
	if !reflect.DeepEqual(c.events, want) {
		t.Errorf("event stream = %+v, want %+v", c.events, want)
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	h := TwoLevel(64)
	c := &collector{}
	h.Attach(c)
	h.Load(0, 1)
	h.Detach(c)
	h.Load(0, 1)
	h.Flops(7)
	if len(c.events) != 1 {
		t.Errorf("detached recorder saw %d events, want 1", len(c.events))
	}
}

func TestCounterSetMirrorsHierarchy(t *testing.T) {
	// A second hierarchy's counter set attached as a recorder must end up
	// identical to the dispatching hierarchy's own counters.
	h := TwoLevel(256)
	mirror := NewCounterSet(2)
	h.Attach(mirror)
	h.Load(0, 16)
	h.Init(0, 4)
	h.Flops(100)
	h.Store(0, 16)
	h.Discard(0, 4)
	h.Flush()
	if !reflect.DeepEqual(mirror, h.Counters()) {
		t.Errorf("mirror = %+v, hierarchy = %+v", mirror, h.Counters())
	}
}

// spanTap is a SpanTap that ignores the marks.
type spanTap struct{}

func (spanTap) SpanBegin(string) {}
func (spanTap) SpanEnd()         {}

// Detach undoes the interests a recorder declared when it was attached, not
// what it would answer now: a ledger that gained a span tap after it was
// attached must not take the marking count below zero as it leaves, or a
// span-tapped ledger attached next would read Marking() false and the
// drivers would skip their span labels.
func TestDetachUndoesInterestsDeclaredAtAttach(t *testing.T) {
	h := TwoLevel(64)
	l := NewLedger(nil)
	h.Attach(l)
	l.SetSpanTap(spanTap{})
	h.Detach(l)
	if h.Marking() {
		t.Fatal("after Detach: Marking true, want false")
	}
	tapped := NewLedger(nil)
	tapped.SetSpanTap(spanTap{})
	h.Attach(tapped)
	if !h.Marking() {
		t.Fatal("span-tapped ledger attached: Marking false, want true")
	}
	h.Detach(tapped)
	if h.Marking() {
		t.Fatal("after the second Detach: Marking true, want false")
	}
}

func TestSnapshotReflectsCounters(t *testing.T) {
	h := New(true, Level{Name: "L1", Size: 64}, Level{Name: "DRAM"})
	h.Load(0, 8)
	h.Flops(16)
	h.Store(0, 8)
	s := h.Snapshot()
	if len(s.Levels) != 2 || len(s.Interfaces) != 1 {
		t.Fatalf("snapshot shape: %d levels, %d interfaces", len(s.Levels), len(s.Interfaces))
	}
	if s.Flops != 16 {
		t.Errorf("snapshot flops = %d, want 16", s.Flops)
	}
	ifc := s.Interfaces[0]
	if ifc.LoadWords != 8 || ifc.StoreWords != 8 || ifc.Traffic != 16 || !ifc.Theorem1Holds {
		t.Errorf("interface snapshot = %+v", ifc)
	}
	if s.Levels[0].WritesTo != 8 || s.Levels[0].PeakOccupancy != 8 || s.Levels[0].Name != "L1" {
		t.Errorf("level snapshot = %+v", s.Levels[0])
	}
	if s.Levels[1].WritesTo != 8 || s.Levels[1].ReadsFrom != 8 {
		t.Errorf("slow level snapshot = %+v", s.Levels[1])
	}
}
