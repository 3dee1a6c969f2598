package flight_test

import (
	"fmt"
	"testing"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/smp"
)

// touchSink keeps the hierarchy's touch stream enabled so EvTouch/EvRange
// are emitted into the batch and the flush's stripping path (what a default
// touchless flight recorder rides) is actually exercised.
type touchSink struct{}

func (touchSink) Record([]machine.Event) {}
func (touchSink) WantsTouch() bool       { return true }

// capture is a plain touchless recorder: with the reference engine (batch
// capacity 1) it receives exactly the event set, in exactly the order, that
// a default flight recorder subscribes to.
type capture struct{ events []machine.Event }

func (c *capture) Record(events []machine.Event) { c.events = append(c.events, events...) }

// drive emits a mixed workload: nested spans, loads/stores on two
// interfaces, flops, residency marks, plus touch/range annotations that a
// touchless ring must never see.
func drive(h *machine.Hierarchy) {
	kernels := []string{"panel", "update", "trsm"}
	for i := 0; i < 57; i++ {
		h.Begin(kernels[i%len(kernels)])
		h.Load(i%2, int64(8+i%5))
		h.Touch(uint64(i)*64, i%3 == 0)
		h.Range(0, uint64(i)*64, 4, i%2 == 0)
		h.Store(i%2, int64(1+i%3))
		h.Flops(int64(1 + i%7))
		if i%9 == 0 {
			h.Init(1, 16)
			h.Discard(1, 8)
		}
		h.End()
	}
}

// referenceEvents runs drive under the reference engine (capacity 1) and
// returns the sequence a touchless recorder was delivered.
func referenceEvents() []machine.Event {
	h := machine.New(false, machine.GenericLevels(3)...)
	h.SetBatchCapacity(1)
	c := &capture{}
	h.Attach(c)
	h.Attach(touchSink{})
	drive(h)
	h.Flush()
	return c.events
}

// The exactness tentpole: the ring's decoded tail is bit-identical to the
// trailing events the reference engine delivers, for rings that wrap many
// times, wrap once, and never wrap.
func TestRingTailMatchesReferenceEngine(t *testing.T) {
	ref := referenceEvents()
	if len(ref) < 100 {
		t.Fatalf("drive too small: %d reference events", len(ref))
	}
	for _, capN := range []int{16, 128, 4096} {
		h := machine.New(false, machine.GenericLevels(3)...)
		fr := flight.New(capN, nil)
		h.Attach(fr.Ledger())
		h.Attach(touchSink{})
		drive(h)
		w := fr.Capture("test")

		if w.TotalEvents != int64(len(ref)) {
			t.Fatalf("cap %d: TotalEvents %d, reference delivered %d", capN, w.TotalEvents, len(ref))
		}
		wantN := len(ref)
		if capN < wantN {
			wantN = capN
		}
		if len(w.Events) != wantN {
			t.Fatalf("cap %d: window holds %d events, want %d", capN, len(w.Events), wantN)
		}
		if w.Dropped != int64(len(ref)-wantN) {
			t.Fatalf("cap %d: Dropped %d, want %d", capN, w.Dropped, len(ref)-wantN)
		}
		tail := ref[len(ref)-wantN:]
		for i, got := range w.Events {
			want := flight.Decode(w.FirstSeq+int64(i), tail[i])
			if got != want {
				t.Fatalf("cap %d: event %d diverges:\nring:      %+v\nreference: %+v", capN, i, got, want)
			}
		}
	}
}

// The ring must never hold a touch or range event unless it opted in — and
// with WithTouch it must hold them all.
func TestTouchInterestGatesDenseEvents(t *testing.T) {
	run := func(fr *flight.Recorder) *flight.Window {
		h := machine.New(false, machine.GenericLevels(3)...)
		h.Attach(fr.Ledger())
		h.Attach(touchSink{})
		drive(h)
		return fr.Capture("test")
	}
	w := run(flight.New(1<<14, nil))
	for _, e := range w.Events {
		if e.Kind == "Touch" || e.Kind == "Range" {
			t.Fatalf("touchless ring holds a %s event", e.Kind)
		}
	}
	base := w.TotalEvents
	wt := run(flight.New(1<<14, nil, flight.WithTouch()))
	touches := int64(0)
	for _, e := range wt.Events {
		if e.Kind == "Touch" || e.Kind == "Range" {
			touches++
		}
	}
	if touches != 57*2 {
		t.Fatalf("touch-interested ring holds %d dense events, drive emitted %d", touches, 57*2)
	}
	if wt.TotalEvents != base+touches {
		t.Fatalf("touch run total %d != touchless total %d + %d dense", wt.TotalEvents, base, touches)
	}
}

// Phase deltas telescope: each closed delta is exactly the difference of the
// cumulative snapshots around it, and an event-free phase closes silently.
func TestPhaseDeltaTelescopes(t *testing.T) {
	h := machine.New(false, machine.GenericLevels(3)...)
	fr := flight.New(0, nil)
	h.Attach(fr.Ledger())

	fr.Phase("a")
	h.Load(0, 100)
	h.Store(0, 40)
	h.Flops(10)
	fr.Phase("b")
	w1 := fr.Capture("t")
	if w1.Closed == nil || w1.Closed.Kernel != "a" {
		t.Fatalf("after closing phase a, Closed = %+v", w1.Closed)
	}
	d := w1.Closed.Delta
	if d.Interfaces[0].LoadWords != 100 || d.Interfaces[0].StoreWords != 40 || d.Flops != 10 {
		t.Fatalf("phase a delta wrong: %+v", d)
	}

	h.Load(0, 7)
	h.Store(1, 5)
	fr.Phase("c")
	w2 := fr.Capture("t")
	if w2.Closed.Kernel != "b" {
		t.Fatalf("after closing phase b, Closed.Kernel = %q", w2.Closed.Kernel)
	}
	got := w2.Closed.Delta
	want := w2.Cumulative.Sub(w1.Cumulative)
	if got.Interfaces[0].LoadWords != want.Interfaces[0].LoadWords ||
		got.Interfaces[1].StoreWords != want.Interfaces[1].StoreWords {
		t.Fatalf("phase b delta %+v != cumulative difference %+v", got, want)
	}

	// No events under "c": closing it keeps the last event-carrying delta.
	fr.Phase("d")
	w3 := fr.Capture("t")
	if w3.Closed.Kernel != "b" {
		t.Fatalf("empty phase close moved Closed to %q", w3.Closed.Kernel)
	}
}

// steadyBatch is a balanced block (spans open and close inside it) over a
// fixed counter geometry, so repeated appends grow nothing.
func steadyBatch() []machine.Event {
	batch := []machine.Event{{Kind: machine.EvBegin, Label: "k"}}
	for i := 0; i < 30; i++ {
		batch = append(batch,
			machine.Event{Kind: machine.EvLoad, Arg: i % 2, Words: 8},
			machine.Event{Kind: machine.EvStore, Arg: i % 2, Words: 4},
			machine.Event{Kind: machine.EvFlops, Words: 16},
		)
	}
	return append(batch, machine.Event{Kind: machine.EvEnd})
}

// The steady-state pin: once warm, recording a block into the ring's
// ledger allocates nothing.
func TestRecordSteadyStateAllocsNothing(t *testing.T) {
	fr := flight.New(256, nil)
	batch := steadyBatch()
	fr.Ledger().Record(batch) // warm: counter geometry, stack backing
	allocs := testing.AllocsPerRun(100, func() { fr.Ledger().Record(batch) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v per batch in steady state, want 0", allocs)
	}
}

// BenchmarkRecord pins the per-event cost of the always-on ring: one lock
// round-trip per batch, then a slot copy and counter fold per event.
func BenchmarkRecord(b *testing.B) {
	fr := flight.New(4096, nil)
	batch := steadyBatch()
	fr.Ledger().Record(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Ledger().Record(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}

// A single flight recorder shared by concurrently recording smp workers,
// probed by a concurrent Peek loop, must stay exact on totals (run under
// -race in CI).
func TestConcurrentRunParallelAndPeek(t *testing.T) {
	tasks, _ := smp.MatMulTasks(16, 16, 16, 4, 64)
	sched := smp.DepthFirst(tasks, 4)
	fr := flight.New(1024, nil, flight.WithTouch())

	done := make(chan struct{})
	probed := make(chan int64, 1)
	go func() {
		var peeks int64
		for {
			select {
			case <-done:
				probed <- peeks
				return
			default:
				w := fr.Peek("probe")
				if int64(len(w.Events)) != w.TotalEvents-w.Dropped {
					panic("inconsistent window accounting")
				}
				_ = fr.Stats()
				peeks++
			}
		}
	}()

	res, err := smp.RunParallel(sched, fr.Ledger())
	close(done)
	peeks := <-probed
	if err != nil {
		t.Fatal(err)
	}
	st := fr.Stats()
	// Every access is one EvTouch, every task one EvBegin/EvEnd pair.
	want := res.AccessesRun + 2*int64(res.TasksRun)
	if st.TotalEvents != want {
		t.Fatalf("flight saw %d events, schedule emitted %d", st.TotalEvents, want)
	}
	if st.Captures != peeks {
		t.Fatalf("Stats counted %d captures, prober took %d", st.Captures, peeks)
	}
	snap := fr.Capture("final")
	if snap.Cumulative.TouchReads+snap.Cumulative.TouchWrites != res.AccessesRun {
		t.Fatalf("touch tally %d+%d != accesses %d",
			snap.Cumulative.TouchReads, snap.Cumulative.TouchWrites, res.AccessesRun)
	}
}

// Peek reads the ring under the ledger's lock, so a window probed while the
// run goroutine records agrees with the counters it is frozen beside: the
// cumulative loads are exactly the ring's events, the running phase is the
// one the ring's last block was recorded under (or the next, opened before
// its first event), and the closed phase is the one before it.
func TestPeekWindowAgreesWithItsCounters(t *testing.T) {
	const block, blocks = 8, 100000
	fr := flight.New(64, machine.GenericLevels(2))
	batch := make([]machine.Event, block)
	for i := range batch {
		batch[i] = machine.Event{Kind: machine.EvLoad, Words: 1}
	}
	label := func(k int64) string {
		if k == 0 {
			return ""
		}
		return fmt.Sprintf("p%d", k)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := int64(1); k <= blocks; k++ {
			fr.Phase(label(k))
			fr.Ledger().Record(batch)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		w := fr.Peek("probe")
		var loads int64
		for _, ifc := range w.Cumulative.Interfaces {
			loads += ifc.LoadWords
		}
		if loads != w.TotalEvents {
			t.Fatalf("window holds %d events beside %d cumulative loads", w.TotalEvents, loads)
		}
		k := w.TotalEvents / block
		at := k
		if w.Phase == label(k+1) {
			at = k + 1
		} else if w.Phase != label(k) {
			t.Fatalf("window of %d blocks runs under %q", k, w.Phase)
		}
		switch {
		case at < 2 && w.Closed != nil:
			t.Fatalf("phase %q has closed %q before any phase closed", w.Phase, w.Closed.Kernel)
		case at >= 2 && (w.Closed == nil || w.Closed.Kernel != label(at-1)):
			t.Fatalf("phase %q beside closed %+v, want %q", w.Phase, w.Closed, label(at-1))
		}
	}
}
