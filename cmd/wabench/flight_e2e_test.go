package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// The forensic path exactly as run() wires it: flight recorder + monitor +
// server + dump directory, a real dist-backed section, then a tripped bound.
// The resulting bundle must surface on every channel — the violation hook,
// the server's dump endpoint, the SSE broadcast, and the on-disk JSON +
// Perfetto files — with per-rank windows correlated by superstep.
func TestFlightForensicPathEndToEnd(t *testing.T) {
	mon := monitor.New(machine.GenericLevels(3), nil)
	fr := flight.New(4096, machine.GenericLevels(3))
	sess := experiments.NewSession()
	sess.SetMonitor(mon)
	sess.SetFlight(fr)

	srv := monitor.NewServer()
	srv.SetMonitor(mon)
	srv.SetFlight(fr)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var hooked *flight.Bundle
	mon.SetViolationHook(func(v monitor.Violation) {
		b := sess.FlightCapture(v)
		if b == nil {
			t.Error("FlightCapture returned nil with a recorder installed")
			return
		}
		hooked = b
		srv.AddBundle(b)
		dumpBundle(dir, b, quiet)
	})

	// A serial section feeds the main ring through the observe hook; a
	// distributed one registers per-rank flight recorders through
	// distObserve.
	sess.Sec4(true)
	if st := fr.Stats(); st.TotalEvents == 0 {
		t.Fatal("flight recorder saw no events from the serial section")
	}
	sess.Table1(true)

	// Trip a deliberately impossible bound: the hook must fire.
	mon.CheckBound("e2e-floor", "table1", 1, 1<<40, 1, false)
	if hooked == nil {
		t.Fatal("violation hook never fired")
	}
	if hooked.Violation == nil || hooked.Violation.ID != 1 || hooked.Violation.Check != "e2e-floor" {
		t.Fatalf("bundle violation metadata: %+v", hooked.Violation)
	}
	if len(hooked.Ranks) == 0 {
		t.Fatal("dist-backed run produced no rank windows")
	}
	for _, rw := range hooked.Ranks {
		if !strings.HasPrefix(rw.Run, "table1 ") {
			t.Fatalf("rank window from unexpected run %q", rw.Run)
		}
		if !strings.HasPrefix(rw.Superstep, "step ") {
			t.Fatalf("rank %d of %q has no superstep correlation: %q", rw.Rank, rw.Run, rw.Superstep)
		}
	}
	// Every rank of one run froze in the same barrier generation.
	bySuper := map[string]string{}
	for _, rw := range hooked.Ranks {
		if prev, ok := bySuper[rw.Run]; ok && prev != rw.Superstep {
			t.Fatalf("run %q ranks disagree on superstep: %q vs %q", rw.Run, prev, rw.Superstep)
		}
		bySuper[rw.Run] = rw.Superstep
	}

	// The server serves the same bundle keyed by violation ID.
	resp, err := http.Get(ts.URL + "/violations/1/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/violations/1/dump = %d", resp.StatusCode)
	}
	var served flight.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Seq != hooked.Seq || len(served.Ranks) != len(hooked.Ranks) {
		t.Fatalf("served bundle (seq %d, %d ranks) != hooked (seq %d, %d ranks)",
			served.Seq, len(served.Ranks), hooked.Seq, len(hooked.Ranks))
	}

	// The dump directory holds the JSON bundle and a valid Perfetto trace.
	raw, err := os.ReadFile(filepath.Join(dir, "violation-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dumped flight.Bundle
	if err := json.Unmarshal(raw, &dumped); err != nil {
		t.Fatalf("dump file is not a bundle: %v", err)
	}
	var again bytes.Buffer
	if err := dumped.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("dumped bundle JSON does not round-trip bit for bit")
	}
	trace, err := os.ReadFile(filepath.Join(dir, "violation-1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.ValidateTraceEvent(trace)
	if err != nil {
		t.Fatalf("dumped trace does not validate: %v", err)
	}
	if info.Spans == 0 || len(info.Pids) < 2 {
		t.Fatalf("dumped trace too thin: %d spans, pids %v", info.Spans, info.Pids)
	}
}

// -flight N rides the full CLI run path and stays invisible to the verdict;
// -flight-dump without -flight is a usage error.
func TestFlightFlagWiring(t *testing.T) {
	if rc := run([]string{"-quick", "-flight", "512", "-check", "strict", "sec4"}); rc != 0 {
		t.Fatalf("conforming run with -flight exited %d", rc)
	}
	if rc := run([]string{"-flight-dump", t.TempDir(), "-quick", "sec4"}); rc != 2 {
		t.Fatalf("-flight-dump without -flight exited %d, want 2", rc)
	}
}

// Under -benchjson -flight a raw kernel attaches its hierarchy through the
// session, whose ledger reports the flight ring's span interest: the ring
// holds the kernel's span marks on top of the events the monitor counts.
func TestBenchFlightRingHoldsRawKernelSpans(t *testing.T) {
	for _, w := range benchWorkloads() {
		if w.name != "WAMatMulCompute" {
			continue
		}
		m := monitor.New(machine.GenericLevels(3), nil)
		fr := flight.New(64, machine.GenericLevels(3))
		if err := w.run(benchSession(m, fr)); err != nil {
			t.Fatal(err)
		}
		events, ring := m.TotalEvents(), fr.Stats().TotalEvents
		if events == 0 || ring <= events {
			t.Fatalf("ring took %d events for the monitor's %d; want the span marks too", ring, events)
		}
		return
	}
	t.Fatal("no WAMatMulCompute workload")
}
