package machine

import (
	"reflect"
	"testing"
)

// collector keeps every event it sees; wantTouch controls TouchInterest.
type collector struct {
	events    []Event
	wantTouch bool
}

func (c *collector) Record(events []Event) { c.events = append(c.events, events...) }
func (c *collector) WantsTouch() bool      { return c.wantTouch }

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
	c := &collector{wantTouch: true}
	h.Attach(c)
	if !h.Tracing() {
		t.Fatal("Tracing() should be true with a touch-interested recorder attached")
	}
	h.Load(0, 1)
	h.Detach(c)
	if h.Tracing() {
		t.Fatal("Tracing() should be false after Detach")
	}
	h.Load(0, 1)
	h.Touch(7, true)
	if len(c.events) != 1 {
		t.Errorf("detached recorder saw %d events, want 1", len(c.events))
	}
}

func TestTouchGoesOnlyToInterestedRecorders(t *testing.T) {
	h := TwoLevel(64)
	plain := &collector{wantTouch: false}
	tracer := &collector{wantTouch: true}
	h.Attach(plain)
	h.Attach(tracer)
	h.Touch(0x40, false)
	h.Touch(0x48, true)
	h.Flush()
	if len(plain.events) != 0 {
		t.Errorf("uninterested recorder saw %d touches", len(plain.events))
	}
	want := []Event{
		{Kind: EvTouch, Addr: 0x40, Write: false},
		{Kind: EvTouch, Addr: 0x48, Write: true},
	}
	if !reflect.DeepEqual(tracer.events, want) {
		t.Errorf("touch stream = %+v, want %+v", tracer.events, want)
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
	if h.Marking() || h.Tracing() {
		t.Fatalf("after Detach: Marking %v, Tracing %v, want both false", h.Marking(), h.Tracing())
	}
	tapped := NewLedger(nil)
	tapped.SetSpanTap(spanTap{})
	h.Attach(tapped)
	if !h.Marking() || !h.Tracing() {
		t.Fatalf("span-tapped ledger attached: Marking %v, Tracing %v, want both true", h.Marking(), h.Tracing())
	}
	h.Detach(tapped)
	if h.Marking() || h.Tracing() {
		t.Fatalf("after the second Detach: Marking %v, Tracing %v, want both false", h.Marking(), h.Tracing())
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
