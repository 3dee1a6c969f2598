package monitor

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
)

// The satellite-bug regression: POST /flight/capture used to route through
// flight.Recorder.Capture, whose Sources sync is a run-goroutine-only
// contract, so an on-demand capture raced the workload's recording. The
// handler now takes the lock-free Peek path; this test pins that by
// hammering the endpoint from several HTTP clients while several goroutines
// record marked Load/Store/Flops blocks into the ring's ledger — under
// -race, the old path fails and this one must not.
func TestFlightCaptureDuringParallelRun(t *testing.T) {
	const workers, tasks, perTask = 4, 144, 30
	fr := flight.New(4096, machine.GenericLevels(3))
	s := NewServer()
	s.SetFlight(fr)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var run sync.WaitGroup
	for w := 0; w < workers; w++ {
		run.Add(1)
		go func(w int) {
			defer run.Done()
			block := make([]machine.Event, 0, perTask+2)
			for k := 0; k < tasks; k++ {
				block = append(block[:0], machine.Event{Kind: machine.EvBegin, Label: fmt.Sprintf("w%d.t%d", w, k)})
				for i := 0; i < perTask; i += 3 {
					block = append(block,
						machine.Event{Kind: machine.EvLoad, Arg: 1, Words: 4},
						machine.Event{Kind: machine.EvFlops, Words: int64(1 + w)},
						machine.Event{Kind: machine.EvStore, Arg: 1, Words: 2})
				}
				fr.Ledger().Record(append(block, machine.Event{Kind: machine.EvEnd}))
			}
		}(w)
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(ts.URL+"/flight/capture", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("capture = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	run.Wait()

	if st := fr.Stats(); st.Captures < 80 {
		t.Fatalf("captures = %d, want >= 80", st.Captures)
	}
	if got, want := fr.Stats().TotalEvents, int64(workers*tasks*(perTask+2)); got != want {
		t.Fatalf("the ring saw %d events, the goroutines recorded %d", got, want)
	}
	// The ledger's totals are the sum of what every goroutine recorded.
	const msgs = tasks * perTask / 3 // loads (and stores, and flops) per goroutine
	var flops int64
	for w := 0; w < workers; w++ {
		flops += msgs * int64(1+w)
	}
	cum := fr.Ledger().Snapshot()
	if ifc := cum.Interfaces[1]; ifc.LoadWords != 4*workers*msgs || ifc.StoreWords != 2*workers*msgs ||
		ifc.LoadMsgs != workers*msgs || ifc.StoreMsgs != workers*msgs || cum.Flops != flops {
		t.Fatalf("ledger totals %+v, flops %d; want %d load words, %d store words, %d messages each way, %d flops",
			ifc, cum.Flops, 4*workers*msgs, 2*workers*msgs, workers*msgs, flops)
	}
}
