package monitor

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// Start must harden the listener against slowloris clients — header and
// request read deadlines, idle reaping — while leaving WriteTimeout at zero,
// because a write deadline would sever every long-lived SSE stream.
func TestStartSetsConnectionTimeouts(t *testing.T) {
	s := NewServer()
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		t.Fatal("Start left no http.Server")
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris headers hold connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: a trickled request body holds a connection forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: abandoned keep-alive connections are never reaped")
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, must stay 0 or SSE streams die at the deadline", srv.WriteTimeout)
	}
}

// Close must drain gracefully, in order: a request already executing when
// Close starts — even a slow one — runs to completion and delivers its full
// body, while parked SSE handlers are unblocked by the broker shutdown first
// so they can never stall the drain. The old implementation called
// srv.Close(), which severed the in-flight response mid-body.
func TestCloseDrainsInFlightRequests(t *testing.T) {
	s := NewServer()

	started := make(chan struct{})
	release := make(chan struct{})
	s.handle("/slow", "/slow", "test endpoint that finishes after Close begins", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "complete")
	})

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s", addr)

	// One SSE client parks in the broker; the broker shutdown inside Close
	// must release it, or the graceful drain would wait out its deadline.
	evResp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()

	var wg sync.WaitGroup
	var body []byte
	var getErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(url + "/slow")
		if err != nil {
			getErr = err
			return
		}
		defer resp.Body.Close()
		body, getErr = io.ReadAll(resp.Body)
	}()

	<-started // the slow request is in flight
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Close is now waiting on the in-flight handler; let it finish.
	time.Sleep(20 * time.Millisecond)
	close(release)

	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	wg.Wait()
	if getErr != nil {
		t.Fatalf("in-flight request severed by Close: %v", getErr)
	}
	if string(body) != "complete" {
		t.Fatalf("in-flight response truncated: %q", body)
	}
}
