package monitor

import (
	"strings"
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

func load(m *Monitor, iface int, words int64) {
	m.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Arg: iface, Words: words}})
}

func store(m *Monitor, iface int, words int64) {
	m.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: iface, Words: words}})
}

// A correct bound stays silent; an injected wrong bound produces a
// structured Violation with the observed and expected sides filled in — the
// acceptance check for the whole conformance path.
func TestInjectedWrongBoundProducesViolation(t *testing.T) {
	good := NewRegistry()
	good.Register(OutputFloor("k", 50))
	m := New(machine.GenericLevels(2), good)
	m.Phase("k")
	load(m, 0, 200)
	store(m, 0, 100)
	if viol := m.Finish(); len(viol) != 0 {
		t.Fatalf("correct bound violated: %v", viol)
	}

	bad := NewRegistry()
	bad.Register(OutputFloor("k", 1<<40)) // absurd: nothing writes a terabyte
	m = New(machine.GenericLevels(2), bad)
	m.Phase("k")
	load(m, 0, 200)
	store(m, 0, 100)
	viol := m.Finish()
	if len(viol) != 1 {
		t.Fatalf("wrong bound produced %d violations, want 1: %v", len(viol), viol)
	}
	v := viol[0]
	if v.Check != "wa-output-floor" || v.Kernel != "k" {
		t.Fatalf("violation identity = %q/%q", v.Check, v.Kernel)
	}
	if v.Observed != 100 || v.Expected != 1<<40 {
		t.Fatalf("violation sides = observed %g expected %g", v.Observed, v.Expected)
	}
	if !strings.Contains(v.String(), "wa-output-floor[k]") {
		t.Fatalf("String() = %q", v.String())
	}
}

// Predictions scope by kernel: a bound registered for one phase never
// evaluates another, and phase deltas telescope so each phase is judged on
// its own events only.
func TestPhaseScopingAndDeltas(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("second", 1000))
	m := New(machine.GenericLevels(2), reg)

	m.Phase("first") // a write-light phase the bound must not see
	load(m, 0, 10)
	m.Phase("second") // closes "first": no violation (floor scoped to "second")
	if viol := m.Violations(); len(viol) != 0 {
		t.Fatalf("bound leaked onto wrong phase: %v", viol)
	}
	load(m, 0, 4000)
	store(m, 0, 2000) // meets the floor on this phase's own delta
	if viol := m.Finish(); len(viol) != 0 {
		t.Fatalf("second phase violated: %v", viol)
	}
	if m.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", m.Phases())
	}
}

// Theorem 1 is checked per interface: a store-only event stream (writes
// without the loads that must accompany them under the model) violates it.
func TestTheorem1Violation(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Theorem1(1))
	m := New(machine.GenericLevels(2), reg)
	m.Phase("ok")
	load(m, 0, 100)
	store(m, 0, 100)
	m.Phase("bad")
	store(m, 0, 100) // traffic 100, writesFast 0
	viol := m.Finish()
	if len(viol) != 1 || viol[0].Check != "theorem1" || viol[0].Kernel != "bad" {
		t.Fatalf("violations = %v", viol)
	}
}

func TestWACeilingAndTrafficFloor(t *testing.T) {
	reg := NewRegistry()
	reg.Register(WACeiling("k", 100, 1.25))
	reg.Register(CATraffic("k", 64, 64, 64, 1, 1)) // floor = 64^3 words
	m := New(machine.GenericLevels(2), reg)
	m.Phase("k")
	load(m, 0, 500)
	store(m, 0, 400) // 400 > 100*1.25; traffic 900 << 262144
	viol := m.Finish()
	if len(viol) != 2 {
		t.Fatalf("want store-ceiling + traffic-floor violations, got %v", viol)
	}
	checks := map[string]bool{}
	for _, v := range viol {
		checks[v.Check] = true
	}
	if !checks["wa-store-ceiling"] || !checks["ca-traffic-floor"] {
		t.Fatalf("checks = %v", checks)
	}
}

// Theorem 2: stores must be at least (W - inputs)/(d+1); a phase whose
// traffic does not exceed the inputs is skipped (the bound is vacuous).
func TestStoreFraction(t *testing.T) {
	reg := NewRegistry()
	reg.Register(StoreFraction("k", 1, 0, 1)) // floor = traffic/2
	m := New(machine.GenericLevels(2), reg)
	m.Phase("k")
	load(m, 0, 100)
	store(m, 0, 10) // traffic 110, floor 55, observed 10
	viol := m.Finish()
	if len(viol) != 1 || viol[0].Check != "thm2-store-fraction" {
		t.Fatalf("violations = %v", viol)
	}

	reg = NewRegistry()
	reg.Register(StoreFraction("k", 1, 1<<30, 1)) // inputs dwarf traffic: vacuous
	m = New(machine.GenericLevels(2), reg)
	m.Phase("k")
	load(m, 0, 100)
	if viol := m.Finish(); len(viol) != 0 {
		t.Fatalf("vacuous bound violated: %v", viol)
	}
}

// Stats-based predictions evaluate cache.Stats observations by kernel name.
func TestObserveStatsWriteBackBounds(t *testing.T) {
	reg := NewRegistry()
	reg.Register(WriteBackCeiling("wa", 10, 1))
	reg.Register(WriteBackFloor("co", 100, 1))
	m := New(machine.GenericLevels(2), reg)

	m.ObserveStats("unrelated", cache.Stats{VictimsM: 1 << 20}) // not scoped here
	m.ObserveStats("wa", cache.Stats{VictimsM: 8})              // under the ceiling
	m.ObserveStats("co", cache.Stats{VictimsM: 150})            // above the floor
	if viol := m.Violations(); len(viol) != 0 {
		t.Fatalf("conforming stats violated: %v", viol)
	}

	m.ObserveStats("wa", cache.Stats{VictimsM: 11})
	m.ObserveStats("co", cache.Stats{VictimsM: 99})
	viol := m.Violations()
	if len(viol) != 2 {
		t.Fatalf("want 2 violations, got %v", viol)
	}
	if viol[0].Check != "prop61-writeback-ceiling" || viol[1].Check != "thm3-writeback-floor" {
		t.Fatalf("checks = %q, %q", viol[0].Check, viol[1].Check)
	}
}

func TestCheckBoundSemantics(t *testing.T) {
	m := New(machine.GenericLevels(2), nil)
	if !m.CheckBound("f", "k", 100, 100, 1, false) { // floor met exactly
		t.Fatal("exact floor failed")
	}
	if !m.CheckBound("f", "k", 60, 100, 2, false) { // slack loosens the floor
		t.Fatal("slacked floor failed")
	}
	if m.CheckBound("f", "k", 40, 100, 2, false) { // below even the slacked floor
		t.Fatal("broken floor passed")
	}
	if !m.CheckBound("c", "k", 120, 100, 1.5, true) { // ceiling with slack
		t.Fatal("slacked ceiling failed")
	}
	if m.CheckBound("c", "k", 200, 100, 1.5, true) {
		t.Fatal("broken ceiling passed")
	}
	viol := m.Violations()
	if len(viol) != 2 {
		t.Fatalf("violations = %v", viol)
	}
	if viol[0].Detail != "floor violated" || viol[1].Detail != "ceiling violated" {
		t.Fatalf("details = %q, %q", viol[0].Detail, viol[1].Detail)
	}
}

// Finish is idempotent, empty marks do not count as phases, and the
// geometry grows on demand past the seed levels.
func TestLifecycleAndGrowth(t *testing.T) {
	m := New(nil, nil)
	m.Phase("a")
	m.Phase("b") // no events: not a phase
	load(m, 2, 64)
	if v1, v2 := m.Finish(), m.Finish(); len(v1) != 0 || len(v2) != 0 {
		t.Fatalf("finish not clean: %v %v", v1, v2)
	}
	if m.Phases() != 1 {
		t.Fatalf("phases = %d, want 1 (empty marks skipped)", m.Phases())
	}
	snap := m.Snapshot()
	if len(snap.Levels) != 4 || snap.Interfaces[2].LoadWords != 64 {
		t.Fatalf("geometry did not grow: %+v", snap)
	}
	if m.TotalEvents() != 1 {
		t.Fatalf("totalEvents = %d", m.TotalEvents())
	}
}

func TestRegistryRejectsUnevaluable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted a prediction with no evaluator")
		}
	}()
	NewRegistry().Register(Prediction{Check: "nothing"})
}

// The ω-section store bounds: an exact floor pins a classical schedule's
// write volume, an exact ceiling pins a write-efficient schedule's budget;
// each fires only on its own side.
func TestStoreFloorAndCeiling(t *testing.T) {
	reg := NewRegistry()
	reg.Register(StoreFloor("classical", 1000, 1))
	reg.Register(StoreCeiling("weff", 100, 1))
	m := New(machine.GenericLevels(2), reg)
	m.Phase("classical")
	load(m, 0, 1000)
	store(m, 0, 1000) // meets the floor exactly
	m.Phase("weff")
	load(m, 0, 1000)
	store(m, 0, 100) // meets the ceiling exactly
	if viol := m.Finish(); len(viol) != 0 {
		t.Fatalf("exact bounds violated: %v", viol)
	}

	reg = NewRegistry()
	reg.Register(StoreFloor("classical", 1000, 1))
	reg.Register(StoreCeiling("weff", 100, 1))
	m = New(machine.GenericLevels(2), reg)
	m.Phase("classical")
	load(m, 0, 1000)
	store(m, 0, 999) // one word shy of the classical floor
	m.Phase("weff")
	load(m, 0, 1000)
	store(m, 0, 101) // one word over the write-efficient budget
	viol := m.Finish()
	if len(viol) != 2 {
		t.Fatalf("want floor + ceiling violations, got %v", viol)
	}
	checks := map[string]string{}
	for _, v := range viol {
		checks[v.Check] = v.Kernel
	}
	if checks["omega-store-floor"] != "classical" || checks["omega-store-ceiling"] != "weff" {
		t.Fatalf("checks = %v", checks)
	}

	// Slack loosens both sides.
	reg = NewRegistry()
	reg.Register(StoreFloor("k", 1000, 2))
	reg.Register(StoreCeiling("k", 100, 2))
	m = New(machine.GenericLevels(2), reg)
	m.Phase("k")
	load(m, 0, 1000)
	store(m, 0, 500) // >= 1000/2 and <= 100*2? No: 500 > 200 — ceiling fires.
	viol = m.Finish()
	if len(viol) != 1 || viol[0].Check != "omega-store-ceiling" {
		t.Fatalf("violations = %v", viol)
	}
}
