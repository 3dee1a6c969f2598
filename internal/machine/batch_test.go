package machine

import (
	"bytes"
	"io"
	"strconv"
	"testing"
)

func twoLevels() []Level {
	return []Level{{Name: "DRAM"}, {Name: "NVM"}}
}

// driveMixed pushes a deterministic mix of every event kind through h,
// including span marks and remote transfers, with a Phase mark on the
// stream (if any) partway through.
func driveMixed(h *Hierarchy, s *StreamRecorder) {
	for i := 0; i < 40; i++ {
		h.Begin("block " + strconv.Itoa(i))
		h.Load(0, int64(2+i%3))
		h.Init(0, 1)
		h.Flops(int64(10 * i))
		h.Discard(0, 1)
		if i%2 == 0 {
			h.StoreRemote(0, 1)
		} else {
			h.Store(0, 1)
		}
		h.End()
		if i == 19 && s != nil {
			s.Phase("second half")
		}
	}
}

// collectRecorder captures the raw delivered stream, marks included.
type collectRecorder struct {
	events []Event
}

func (c *collectRecorder) Record(events []Event) { c.events = append(c.events, events...) }

// TestBatchingPreservesEventSequence is the core equivalence check: the exact
// same events, in the exact same order, reach an attached recorder whether
// the hierarchy buffers 1 event (per-event timing) or the default block.
func TestBatchingPreservesEventSequence(t *testing.T) {
	run := func(capacity int) []Event {
		h := New(false, twoLevels()...)
		h.SetBatchCapacity(capacity)
		c := &collectRecorder{}
		h.Attach(c)
		driveMixed(h, nil)
		h.Flush()
		return c.events
	}
	ref := run(1)
	got := run(DefaultBatchEvents)
	if len(ref) != len(got) {
		t.Fatalf("event counts differ: per-event %d, batched %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("event %d differs: per-event %+v, batched %+v", i, ref[i], got[i])
		}
	}
	if len(ref) == 0 {
		t.Fatal("no events captured")
	}
}

// TestStreamCadencePinnedUnderBatching pins the StreamRecorder contract: with
// Every smaller than the batch capacity, the batched engine must emit
// byte-identical JSONL — same record boundaries, same deltas, same phase
// labels — as the per-event engine. In particular no event recorded before a
// Phase mark may be deferred past it.
func TestStreamCadencePinnedUnderBatching(t *testing.T) {
	run := func(capacity int) []byte {
		var buf bytes.Buffer
		h := New(false, twoLevels()...)
		h.SetBatchCapacity(capacity)
		s := h.StreamTo(&buf, 3) // every=3 << DefaultBatchEvents
		driveMixed(h, s)
		if err := s.Close(); err != nil {
			t.Fatalf("stream close: %v", err)
		}
		h.Detach(s.Ledger())
		return buf.Bytes()
	}
	ref := run(1)
	got := run(DefaultBatchEvents)
	if !bytes.Equal(ref, got) {
		t.Fatalf("stream bytes diverge under batching:\nper-event:\n%s\nbatched:\n%s", ref, got)
	}
	if len(ref) == 0 {
		t.Fatal("stream emitted nothing")
	}
}

// TestFlushDeliversToBareRecorders pins the documented migration rule: a
// recorder without read-side syncing (a bare CounterSet mirror) observes the
// full stream after an explicit Flush.
func TestFlushDeliversToBareRecorders(t *testing.T) {
	h := New(false, twoLevels()...)
	mirror := NewCounterSet(2)
	h.Attach(mirror)
	h.Load(0, 7)
	h.Store(0, 5)
	if got := mirror.Iface[0].LoadWords; got != 0 {
		t.Fatalf("mirror saw %d load words before flush; batching should have buffered them", got)
	}
	h.Flush()
	if got := mirror.Iface[0].LoadWords; got != 7 {
		t.Fatalf("mirror load words = %d after flush, want 7", got)
	}
	if got := mirror.Iface[0].StoreWords; got != 5 {
		t.Fatalf("mirror store words = %d after flush, want 5", got)
	}
}

// TestHierarchyCountersStaySynchronous: the hierarchy's own counters (h.def)
// are not buffered — strict-mode residency checks and accessor reads must see
// every event the moment it is recorded, batching or not.
func TestHierarchyCountersStaySynchronous(t *testing.T) {
	h := New(false, twoLevels()...)
	c := &collectRecorder{}
	h.Attach(c) // recorder present, so events also enter the batch buffer
	h.Load(0, 9)
	if got := h.Interface(0).LoadWords; got != 9 {
		t.Fatalf("h.Interface(0).LoadWords = %d with events buffered, want 9", got)
	}
	if len(c.events) != 0 {
		t.Fatalf("recorder saw %d events before any flush", len(c.events))
	}
}

// TestZeroAllocSteadyState is the hot-path allocation budget: with marks off
// and a counter set and a stream attached, recording events allocates
// nothing once the engine is warm.
func TestZeroAllocSteadyState(t *testing.T) {
	h := New(false, twoLevels()...)
	h.Attach(NewCounterSet(2))
	s := h.StreamTo(io.Discard, 0) // no periodic flush; Close emits the total
	defer s.Close()

	step := func() {
		h.Load(0, 8)
		h.Flops(16)
		h.LoadRemote(0, 4)
		h.Flops(8)
		h.Store(0, 12)
	}
	// Warm up: fill and flush enough batches that every lazily-grown buffer
	// (batch, dirty-source list, stream geometry) reaches steady state.
	for i := 0; i < 4*DefaultBatchEvents; i++ {
		step()
	}
	h.Flush()

	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state event path allocates %.2f per step, want 0", avg)
	}
}

// TestSpanLabelsInterning: label caches format once per index and are
// allocation-free on the hit path.
func TestSpanLabelsInterning(t *testing.T) {
	calls := 0
	l := NewSpanLabels(func(i int) string { calls++; return "panel " + strconv.Itoa(i) })
	if got := l.Get(3); got != "panel 3" {
		t.Fatalf("Get(3) = %q", got)
	}
	if got := l.Get(3); got != "panel 3" || calls != 1 {
		t.Fatalf("second Get(3) = %q, formatter ran %d times", got, calls)
	}
	l2 := NewSpanLabels2(func(i, j int) string { return "C[" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "]" })
	if got := l2.Get(2, 5); got != "C[2,5]" {
		t.Fatalf("Get(2,5) = %q", got)
	}
	l.Get(0) // warm index 0 for the alloc check
	if avg := testing.AllocsPerRun(500, func() {
		l.Get(0)
		l.Get(3)
		l2.Get(2, 5)
	}); avg != 0 {
		t.Fatalf("warm label lookups allocate %.2f per run, want 0", avg)
	}
}

// TestSourcesDirtyTracking: Sync flushes dirty sources exactly once, in
// first-dirtied order, and cleaning removes without losing others.
func TestSourcesDirtyTracking(t *testing.T) {
	var order []int
	mk := func(id int) *fakeFlusher { return &fakeFlusher{id: id, order: &order} }
	var s Sources
	a, b, c := mk(1), mk(2), mk(3)
	s.SourceDirty(a)
	s.SourceDirty(b)
	s.SourceDirty(a) // duplicate: must not double-flush
	s.SourceDirty(c)
	s.SourceClean(b)
	s.Sync()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("flush order = %v, want [1 3]", order)
	}
}

type fakeFlusher struct {
	id    int
	order *[]int
}

func (f *fakeFlusher) Flush() { *f.order = append(*f.order, f.id) }
