package main

import (
	"io"
	"log/slog"
	"os"
	"strings"
	"testing"

	"writeavoid/internal/costmodel"
	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
)

// Contradictory flag combinations and unknown sections are rejected up front
// with usage exit code 2 — never a run with interleaved stdout dialects, or
// one that ignores part of what was asked.
func TestRunRejectsContradictoryFlags(t *testing.T) {
	cases := [][]string{
		{"-check", "bogus"},
		{"-stream", "-", "-trace", "-"},
		{"-json", "-stream", "-"},
		{"-json", "-trace", "-"},
		{"-benchjson", "-", "-stream", "-"},
		{"-benchjson", "out.json", "-json"},
		{"-benchjson", "out.json", "sec2"},
		{"-hw", "weird"},
		{"-quick", "nosuchsection"},
		{"-quick", "sec2", "nosuchsection"},
		{"-json", "sec2"},
		{"-flight", "64", "-flight-dump", "out"},
		{"-sockets", "-3", "numa"},
		{"-quick", "-sockets", "0", "sec2"},
		{"-flight", "-5", "-quick", "sec2"},
	}
	for _, args := range cases {
		if rc := run(args); rc != 2 {
			t.Errorf("run(%v) = %d, want 2", args, rc)
		}
	}
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// The strict verdict: a monitor that recorded a violation exits nonzero
// under -check strict, zero under warn and off.
func TestConformanceVerdictExitCodes(t *testing.T) {
	verdict := func(floor int64, mode string) int {
		reg := monitor.NewRegistry()
		reg.Register(monitor.OutputFloor("p", floor))
		mon := monitor.New(machine.GenericLevels(2), reg)
		sess := experiments.NewSession()
		sess.SetMonitor(mon)
		mon.Phase("p")
		mon.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 100}})
		mon.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: 50}})
		return conformanceVerdict(sess, mon, mode, testLogger())
	}
	if rc := verdict(1<<40, "strict"); rc != 1 {
		t.Fatalf("strict verdict on violation = %d, want 1", rc)
	}
	if rc := verdict(1<<40, "warn"); rc != 0 {
		t.Fatalf("warn verdict on violation = %d, want 0", rc)
	}
	if rc := verdict(1<<40, "off"); rc != 0 {
		t.Fatalf("off verdict on violation = %d, want 0", rc)
	}
	if rc := verdict(10, "strict"); rc != 0 {
		t.Fatalf("strict verdict on clean run = %d, want 0", rc)
	}
	if rc := conformanceVerdict(experiments.NewSession(), nil, "strict", testLogger()); rc != 0 {
		t.Fatalf("strict verdict with no monitor = %d, want 0", rc)
	}
}

// The -json phase suite satisfies its own registered bounds: the strict
// gate over buildJSONReport stays green, and all four phases are checked.
func TestJSONSuiteConformsStrictly(t *testing.T) {
	mon := monitor.New(machine.GenericLevels(3), jsonSuiteChecks())
	sess := experiments.NewSession()
	sess.SetMonitor(mon)
	buildJSONReport(sess, true, "nvm", costmodel.NVMBacked(8))
	if rc := conformanceVerdict(sess, mon, "strict", testLogger()); rc != 0 {
		t.Fatalf("json suite violates its own bounds: %v", mon.Violations())
	}
	if mon.Phases() != 4 {
		t.Fatalf("phases checked = %d, want 4", mon.Phases())
	}
	if mon.TotalEvents() == 0 {
		t.Fatal("monitor saw no events")
	}
}

// A violation in the run's last phase freezes that phase: the verdict closes
// the flight recorder's phase before the monitor's, as mark does between
// sections, so the bundle's Closed delta is the delta the failed check
// evaluated, not the phase before it.
func TestLastPhaseViolationFreezesItsDelta(t *testing.T) {
	lv := machine.GenericLevels(2)
	reg := monitor.NewRegistry()
	reg.Register(monitor.OutputFloor("last", 100))
	mon := monitor.New(lv, reg)
	fr := flight.New(64, lv)
	sess := experiments.NewSession()
	sess.SetMonitor(mon)
	sess.SetFlight(fr)
	var bundles []*flight.Bundle
	mon.SetViolationHook(func(v monitor.Violation) {
		bundles = append(bundles, sess.FlightCapture(v))
	})

	h := sess.Observe(machine.New(false, lv...))
	sess.Mark("first")
	h.Load(0, 10)
	h.Store(0, 10)
	sess.Mark("last")
	h.Load(0, 3)
	h.Store(0, 3)
	conformanceVerdict(sess, mon, "warn", testLogger())

	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want 1 (the floor on \"last\" fails once)", len(bundles))
	}
	c := bundles[0].Window.Closed
	if c == nil {
		t.Fatal("bundle has no closed phase delta")
	}
	if c.Kernel != "last" || c.Delta.Interfaces[0].StoreWords != 3 {
		t.Fatalf("bundle froze phase %q with %d store words, want \"last\" with 3",
			c.Kernel, c.Delta.Interfaces[0].StoreWords)
	}
}

// captureOutput returns what f writes to os.Stdout and os.Stderr.
func captureOutput(t *testing.T, f func()) (stdout, stderr string) {
	t.Helper()
	redirect := func(file **os.File) (restore func() string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		saved := *file
		*file = w
		done := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			done <- string(b)
		}()
		return func() string {
			*file = saved
			w.Close()
			return <-done
		}
	}
	restoreOut, restoreErr := redirect(&os.Stdout), redirect(&os.Stderr)
	f()
	return restoreOut(), restoreErr()
}

// -h lists every section of the table, and an unknown name is refused with
// the same list before any section runs or prints.
func TestUsageListsSections(t *testing.T) {
	var rc int
	_, help := captureOutput(t, func() { rc = run([]string{"-h"}) })
	if rc != 0 {
		t.Errorf("-h exit = %d, want 0", rc)
	}
	stdout, unknown := captureOutput(t, func() { rc = run([]string{"-quick", "sec2", "nosuchsection"}) })
	if rc != 2 {
		t.Errorf("unknown section exit = %d, want 2", rc)
	}
	if stdout != "" {
		t.Errorf("unknown section wrote to stdout:\n%s", stdout)
	}
	if !strings.Contains(unknown, `unknown section "nosuchsection"`) {
		t.Errorf("unknown-section message does not name it:\n%s", unknown)
	}
	list := strings.Join(experiments.SectionNames(), " ") + " all"
	if !strings.Contains(help, list) {
		t.Errorf("-h does not list the sections %q:\n%s", list, help)
	}
	if !strings.Contains(unknown, list) {
		t.Errorf("unknown-section message does not list the sections %q:\n%s", list, unknown)
	}
}
