package monitor

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
)

// Violation IDs are dense, 1-based, stable across phases, and ViolationsSince
// pages over them.
func TestViolationIDsAndSince(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("k1", 1<<40))
	reg.Register(OutputFloor("k2", 1<<40))
	m := New(machine.GenericLevels(2), reg)
	m.Phase("k1")
	store(m, 0, 10)
	m.Phase("k2")
	store(m, 0, 20)
	viol := m.Finish()
	if len(viol) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", len(viol), viol)
	}
	for i, v := range viol {
		if v.ID != int64(i+1) {
			t.Fatalf("violation %d has ID %d, want %d", i, v.ID, i+1)
		}
	}
	if got := m.ViolationsSince(0); len(got) != 2 {
		t.Fatalf("since 0: %d", len(got))
	}
	got := m.ViolationsSince(1)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("since 1: %+v", got)
	}
	if got := m.ViolationsSince(5); len(got) != 0 {
		t.Fatalf("since 5: %+v", got)
	}
}

// The violation hook fires once per violation, outside the monitor's lock
// (reading the monitor back from inside the hook must not deadlock), on the
// goroutine that recorded it — so it can freeze run-goroutine state.
func TestViolationHookFiresOutsideLock(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("k", 1<<40))
	m := New(machine.GenericLevels(2), reg)
	var seen []Violation
	m.SetViolationHook(func(v Violation) {
		seen = append(seen, v)
		if n := len(m.Violations()); n < len(seen) { // reentrant read: no deadlock
			t.Errorf("hook sees %d recorded violations, fired for %d", n, len(seen))
		}
	})
	m.Phase("k")
	store(m, 0, 10)
	m.Phase("idle") // closes k, evaluates, violates, fires
	m.CheckBound("manual-floor", "k", 1, 1<<30, 1, false)
	m.Finish()
	if len(seen) != 2 {
		t.Fatalf("hook fired %d times, want 2 (phase check + manual bound): %+v", len(seen), seen)
	}
	if seen[0].Check != "wa-output-floor" || seen[0].ID != 1 {
		t.Fatalf("first hook violation: %+v", seen[0])
	}
	if seen[1].Check != "manual-floor" || seen[1].ID != 2 {
		t.Fatalf("second hook violation: %+v", seen[1])
	}
}

// The word-exactness invariant of the forensic path: a flight recorder
// driven with the same events and the same marks as the monitor (flight's
// phase closed first, as experiments.Mark orders them) freezes, inside the
// violation hook, a Closed delta that matches the violated check's observed
// value word for word.
func TestHookCapturesExactPhaseDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("mult", 1<<40))
	m := New(machine.GenericLevels(2), reg)
	fr := flight.New(64, nil)

	var captured *flight.Window
	m.SetViolationHook(func(v Violation) {
		captured = fr.Capture("violation")
		if d := captured.Closed; d == nil || d.Kernel != v.Kernel {
			t.Errorf("frozen delta is %+v, violation kernel %q", d, v.Kernel)
		}
		if got := captured.Closed.Delta.Interfaces[0].StoreWords; float64(got) != v.Observed {
			t.Errorf("frozen delta stores %d, check observed %g", got, v.Observed)
		}
	})

	record := func(e machine.Event) {
		fr.Ledger().Record([]machine.Event{e})
		m.Ledger().Record([]machine.Event{e})
	}
	mark := func(name string) { fr.Phase(name); m.Phase(name) }

	mark("warmup")
	record(machine.Event{Kind: machine.EvStore, Arg: 0, Words: 999})
	mark("mult")
	record(machine.Event{Kind: machine.EvLoad, Arg: 0, Words: 300})
	record(machine.Event{Kind: machine.EvStore, Arg: 0, Words: 137})
	mark("done") // closes mult: floor 1<<40 over 137 stored words violates
	if captured == nil {
		t.Fatal("violation hook never fired")
	}
	if captured.Closed.Delta.Interfaces[0].StoreWords != 137 {
		t.Fatalf("frozen mult delta stores %d, want 137", captured.Closed.Delta.Interfaces[0].StoreWords)
	}
}

// The index page lists every registered route — adding an endpoint without
// touching the registry is impossible, and this test keeps the page honest.
func TestIndexListsEveryRoute(t *testing.T) {
	srv := NewServer()
	srv.EnablePprof()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/")
	if code != 200 {
		t.Fatalf("/ = %d", code)
	}
	routes := srv.Routes()
	if len(routes) < 10 {
		t.Fatalf("route registry suspiciously small: %v", routes)
	}
	for _, want := range []string{"/readyz", "/debug/pprof", "/flight", "/flight/capture", "/violations/{id}/dump", "/events"} {
		found := false
		for _, r := range routes {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("route registry missing %q: %v", want, routes)
		}
	}
	for _, r := range routes {
		if !strings.Contains(string(body), r) {
			t.Fatalf("index page missing route %q:\n%s", r, body)
		}
	}
}

// /violations?since=N pages by ID; a malformed cursor is a client error.
func TestViolationsSinceEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("k1", 1<<40))
	reg.Register(OutputFloor("k2", 1<<40))
	m := New(machine.GenericLevels(2), reg)
	m.Phase("k1")
	store(m, 0, 10)
	m.Phase("k2")
	store(m, 0, 20)
	m.Finish()

	srv := NewServer()
	srv.SetMonitor(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	decode := func(body []byte) []Violation {
		var vs []Violation
		if err := json.Unmarshal(body, &vs); err != nil {
			t.Fatalf("bad violations JSON: %v\n%s", err, body)
		}
		return vs
	}
	if _, body := get(t, ts, "/violations"); len(decode(body)) != 2 {
		t.Fatalf("unfiltered /violations: %s", body)
	}
	_, body := get(t, ts, "/violations?since=1")
	vs := decode(body)
	if len(vs) != 1 || vs[0].ID != 2 {
		t.Fatalf("/violations?since=1: %s", body)
	}
	if code, _ := get(t, ts, "/violations?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus since = %d, want 400", code)
	}
}

// The flight surface end to end: status, on-demand capture, per-violation
// dump, 404s for the unknown, and the wa_flight_* families in /metrics.
func TestFlightEndpoints(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/flight"); code != 404 {
		t.Fatalf("/flight without a recorder = %d, want 404", code)
	}

	fr := flight.New(32, nil)
	for i := 0; i < 10; i++ {
		fr.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: int64(i)}})
	}
	srv.SetFlight(fr)

	resp, err := http.Post(ts.URL+"/flight/capture", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var manual flight.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&manual); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if manual.Reason != "manual" || manual.Seq != 1 || len(manual.Window.Events) != 10 {
		t.Fatalf("manual capture: %+v", manual)
	}
	if code, _ := get(t, ts, "/flight/capture"); code != 405 {
		t.Fatalf("GET /flight/capture = %d, want 405 (POST only)", code)
	}

	// Storing a bundle announces the capture on the SSE wire.
	ch := srv.Events().subscribe()
	defer srv.Events().unsubscribe(ch)
	viol := fr.Capture("violation")
	seq := srv.AddBundle(&flight.Bundle{
		Reason:    "violation",
		Violation: &flight.ViolationInfo{ID: 7, Check: "c", Kernel: "k"},
		Window:    viol,
	})
	if seq != 2 {
		t.Fatalf("second bundle got seq %d", seq)
	}
	msg := <-ch
	var sum struct {
		Seq         int64  `json:"seq"`
		ViolationID int64  `json:"violationId"`
		Check       string `json:"check"`
	}
	if err := json.Unmarshal(msg.data, &sum); err != nil || msg.event != "flight" {
		t.Fatalf("SSE broadcast = %q %q (%v)", msg.event, msg.data, err)
	}
	if sum.Seq != 2 || sum.ViolationID != 7 || sum.Check != "c" {
		t.Fatalf("SSE bundle summary: %s", msg.data)
	}

	_, body := get(t, ts, "/flight")
	var doc struct {
		Stats   flight.Stats      `json:"stats"`
		Bundles []json.RawMessage `json:"bundles"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad /flight JSON: %v\n%s", err, body)
	}
	if doc.Stats.TotalEvents != 10 || len(doc.Bundles) != 2 {
		t.Fatalf("/flight doc: %s", body)
	}

	code, body := get(t, ts, "/violations/7/dump")
	if code != 200 {
		t.Fatalf("/violations/7/dump = %d", code)
	}
	var dumped flight.Bundle
	if err := json.Unmarshal(body, &dumped); err != nil {
		t.Fatal(err)
	}
	if dumped.Violation == nil || dumped.Violation.ID != 7 || len(dumped.Window.Events) != 10 {
		t.Fatalf("dumped bundle: %s", body)
	}
	if code, _ := get(t, ts, "/violations/99/dump"); code != 404 {
		t.Fatalf("unknown dump = %d, want 404", code)
	}
	if code, _ := get(t, ts, "/violations/notanumber/dump"); code != 400 {
		t.Fatalf("malformed dump id = %d, want 400", code)
	}

	code, body = get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if _, err := ValidateExposition(body); err != nil {
		t.Fatalf("/metrics with flight families does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"wa_flight_events_total 10",
		"wa_flight_ring_events 10",
		"wa_flight_captures_total 2",
		"wa_flight_bundles_total 2",
		"wa_flight_dropped_events_total 0",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
