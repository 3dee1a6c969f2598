package flight_test

import (
	"fmt"
	"sync"
	"testing"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
)

// capture is a plain recorder: with the reference engine (batch capacity 1)
// it receives exactly the event set, in exactly the order, that a flight
// recorder's ledger is delivered.
type capture struct{ events []machine.Event }

func (c *capture) Record(events []machine.Event) { c.events = append(c.events, events...) }

// drive emits a mixed workload: nested spans, local and remote loads and
// stores on two interfaces, flops and residency marks.
func drive(h *machine.Hierarchy) {
	kernels := []string{"panel", "update", "trsm"}
	for i := 0; i < 57; i++ {
		h.Begin(kernels[i%len(kernels)])
		h.Load(i%2, int64(8+i%5))
		if i%3 == 0 {
			h.LoadRemote(0, int64(1+i%4))
			h.StoreRemote(0, 1)
		}
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
// returns the sequence a recorder was delivered.
func referenceEvents() []machine.Event {
	h := machine.New(false, machine.GenericLevels(3)...)
	h.SetBatchCapacity(1)
	c := &capture{}
	h.Attach(c)
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

// A single flight recorder whose ledger several goroutines record marked
// blocks into, probed by a concurrent Peek loop, must stay exact on totals
// (run under -race in CI).
func TestConcurrentRecordAndPeek(t *testing.T) {
	const workers, tasks, perTask = 4, 64, 24
	fr := flight.New(1024, nil)

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

	// Each goroutine records its tasks one block at a time: a task's Begin,
	// its loads, flops and stores, and its End.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			block := make([]machine.Event, 0, perTask+2)
			for k := 0; k < tasks; k++ {
				block = append(block[:0], machine.Event{Kind: machine.EvBegin, Label: fmt.Sprintf("w%d.t%d", w, k)})
				for i := 0; i < perTask; i += 3 {
					block = append(block,
						machine.Event{Kind: machine.EvLoad, Words: int64(1 + w)},
						machine.Event{Kind: machine.EvFlops, Words: 2},
						machine.Event{Kind: machine.EvStore, Words: 1})
				}
				fr.Ledger().Record(append(block, machine.Event{Kind: machine.EvEnd}))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	peeks := <-probed

	st := fr.Stats()
	if want := int64(workers * tasks * (perTask + 2)); st.TotalEvents != want {
		t.Fatalf("flight saw %d events, the goroutines recorded %d", st.TotalEvents, want)
	}
	if st.Captures != peeks {
		t.Fatalf("Stats counted %d captures, prober took %d", st.Captures, peeks)
	}
	// The ledger's totals are the sum of what every goroutine recorded.
	const msgs = tasks * perTask / 3 // loads (and stores, and flops) per goroutine
	var loadWords int64
	for w := 0; w < workers; w++ {
		loadWords += msgs * int64(1+w)
	}
	cum := fr.Capture("final").Cumulative
	ifc := cum.Interfaces[0]
	if ifc.LoadWords != loadWords || ifc.LoadMsgs != workers*msgs ||
		ifc.StoreWords != workers*msgs || ifc.StoreMsgs != workers*msgs || cum.Flops != 2*workers*msgs {
		t.Fatalf("ledger totals %+v, flops %d; want %d load words, %d loads and stores, %d flops",
			ifc, cum.Flops, loadWords, workers*msgs, 2*workers*msgs)
	}
	if got, want := fr.Ledger().Events(), int64(3*workers*msgs); got != want {
		t.Fatalf("ledger folded %d events, the goroutines recorded %d", got, want)
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
