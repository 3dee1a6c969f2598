package monitor

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/smp"
)

// The satellite-bug regression: POST /flight/capture used to route through
// flight.Recorder.Capture, whose Sources sync is a run-goroutine-only
// contract, so an on-demand capture raced the workload's recording. The
// handler now takes the lock-free Peek path; this test pins that by
// hammering the endpoint from several HTTP clients while a live
// smp.RunParallel feeds the ring from concurrent workers — under -race, the
// old path fails and this one must not.
func TestFlightCaptureDuringParallelRun(t *testing.T) {
	fr := flight.New(4096, machine.GenericLevels(3))
	s := NewServer()
	s.SetFlight(fr)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tasks, _ := smp.MatMulTasks(24, 24, 24, 4, 64)
	sched := smp.DepthFirst(tasks, 4)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := smp.RunParallel(sched, fr.Ledger()); err != nil {
			t.Error(err)
		}
	}()

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
	<-done

	if st := fr.Stats(); st.Captures < 80 {
		t.Fatalf("captures = %d, want >= 80", st.Captures)
	}
	if st := fr.Stats(); st.TotalEvents == 0 {
		t.Fatal("parallel run recorded no events into the ring")
	}
}
