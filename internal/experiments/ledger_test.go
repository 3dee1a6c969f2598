package experiments

import (
	"encoding/json"
	"io"
	"testing"

	"writeavoid/internal/core"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/monitor"
	"writeavoid/internal/pmm"
	"writeavoid/internal/profile"
)

// The benchmark's op ends the way bench/sinks.go's observed.finish does:
// stream Close, histogram Finish and monitor Finish, with no Session.Finish.
// A violation in the op's last section must still freeze that section's
// delta — the ledger closes the phase once, for the flight recorder as much
// as for the monitor, whichever sink's Finish closes it and in whichever
// order the sinks were installed.
func TestMonitorFinishFreezesLastPhase(t *testing.T) {
	for _, flightFirst := range []bool{true, false} {
		lv := machine.GenericLevels(2)
		reg := monitor.NewRegistry()
		reg.Register(monitor.OutputFloor("last", 100))
		mon := monitor.New(lv, reg)
		fr := flight.New(64, lv)
		s := NewSession()
		if flightFirst {
			s.SetFlight(fr)
			s.SetMonitor(mon)
		} else {
			s.SetMonitor(mon)
			s.SetFlight(fr)
		}
		var bundles []*flight.Bundle
		mon.SetViolationHook(func(v monitor.Violation) {
			bundles = append(bundles, s.FlightCapture(v))
		})

		h := s.Observe(machine.New(false, lv...))
		s.Mark("first")
		h.Load(0, 10)
		h.Store(0, 10)
		s.Mark("last")
		h.Load(0, 3)
		h.Store(0, 3)
		viol := mon.Finish()

		if len(viol) != 1 || len(bundles) != 1 {
			t.Fatalf("flight first %v: %d violations, %d bundles, want 1 each", flightFirst, len(viol), len(bundles))
		}
		c := bundles[0].Window.Closed
		if c == nil || c.Kernel != "last" || c.Delta.Interfaces[0].StoreWords != 3 {
			t.Fatalf("flight first %v: bundle froze %+v, want phase \"last\" with 3 store words", flightFirst, c)
		}
		if float64(c.Delta.Interfaces[0].StoreWords) != viol[0].Observed {
			t.Fatalf("frozen delta stores %d, the check observed %g", c.Delta.Interfaces[0].StoreWords, viol[0].Observed)
		}
	}
}

// counting counts the counter-bearing events a hierarchy delivers to it.
type counting struct{ n int64 }

func (c *counting) Record(events []machine.Event) {
	for _, e := range events {
		switch e.Kind {
		case machine.EvBegin, machine.EvEnd:
			continue
		}
		c.n++
	}
}

// One fold per observer layer: with every sink installed, an observed
// event is folded twice — once by the session ledger, which the monitor,
// the streams, the histograms and the flight recorder all read, and once by
// the profiler's main tree chained below it — where each of the six sinks
// used to fold it. The ledger is the only recorder observe attaches.
func TestObservedEventFoldedTwice(t *testing.T) {
	lv := machine.GenericLevels(3)
	s := NewSession()
	mon := monitor.New(lv, ConformanceChecks(true))
	s.SetMonitor(mon)
	st := machine.NewStreamRecorder(io.Discard, lv, 7)
	s.AddStream(st)
	prof := profile.NewProfiler(lv)
	s.SetProfile(prof)
	fr := flight.New(64, lv)
	s.SetFlight(fr)
	hists := monitor.NewHistogramRecorder(lv)
	s.SetHistograms(hists)
	for name, l := range map[string]*machine.Ledger{
		"monitor": mon.Ledger(), "stream": st.Ledger(), "flight": fr.Ledger(), "histograms": hists.Ledger(),
	} {
		if l != s.led {
			t.Errorf("the %s reads a ledger of its own", name)
		}
	}
	if prof.Main.Ledger() == s.led {
		t.Fatal("the profiler's main tree shares the session ledger; it needs its own for krylov's charges")
	}

	h := s.Observe(machine.New(false, lv...))
	count := &counting{}
	h.Attach(count)
	s.Mark("matmul")
	a, b := matrix.Random(32, 32, 1), matrix.Random(32, 32, 2)
	p := &core.Plan{H: h, BlockSizes: []int{4, 16}, Order: core.OrderWA}
	if err := core.MatMul(p, matrix.New(32, 32), a, b); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if count.n == 0 {
		t.Fatal("the kernel emitted no events")
	}
	if got := s.led.Events() + prof.Main.Ledger().Events(); got != 2*count.n {
		t.Fatalf("%d events were folded %d times, want %d", count.n, got, 2*count.n)
	}

	h.Detach(s.led)
	events, ring, clock := s.led.Events(), fr.Stats().TotalEvents, prof.Main.Clock()
	h.Load(0, 1)
	h.Store(0, 1)
	h.Flush()
	if s.led.Events() != events || fr.Stats().TotalEvents != ring || prof.Main.Clock() != clock {
		t.Fatal("an event reached a sink with the session ledger detached")
	}
}

// A distributed rank's events are folded twice: by the machine's shard and
// by the one ledger distObserve hands the rank, which the rank's span tree
// and flight ring both read.
func TestRankEventFoldedTwice(t *testing.T) {
	s := NewSession()
	prof := profile.NewProfiler(machine.GenericLevels(3))
	s.SetProfile(prof)
	s.SetFlight(flight.New(256, nil))
	observe := s.distObserve("mm")
	var ledgers []*machine.Ledger
	cfg := pmm.Config{Q: 2, C: 1, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8}
	cfg.Observe = func(rank int) machine.Recorder {
		rec := observe(rank)
		l, ok := rec.(*machine.Ledger)
		if !ok {
			t.Fatalf("rank %d observer is a %T, want one *machine.Ledger", rank, rec)
		}
		ledgers = append(ledgers, l)
		return rec
	}
	_, m, err := pmm.MM25D(cfg, matrix.Random(16, 16, 1), matrix.Random(16, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	for rank, l := range ledgers {
		if got := s.flightDist.Proc(rank).Ledger(); got != l {
			t.Fatalf("rank %d flight ring reads another ledger", rank)
		}
		c := m.Proc(rank).H.Counters()
		var want int64
		for _, ifc := range c.Iface {
			want += ifc.LoadMsgs + ifc.StoreMsgs
		}
		if want == 0 || l.Events() < want {
			t.Fatalf("rank %d ledger folded %d events, its hierarchy moved %d messages", rank, l.Events(), want)
		}
		if !l.WantsSpans() {
			t.Fatalf("rank %d ledger has no span tree reading it", rank)
		}
	}
}

// distObserve hands the previous dist machine's rank rings to the next one:
// after an 8-rank machine, a 4-rank machine must record on four of its
// rings, and its rank windows must equal those of a session whose rings are
// fresh, whether the rings wrap (64 events) or not (4096).
func TestDistObserveReusesRings(t *testing.T) {
	a, b := matrix.Random(16, 16, 1), matrix.Random(16, 16, 2)
	run := func(s *Session, cfg pmm.Config) {
		cfg.Observe = s.distObserve("mm")
		if _, _, err := pmm.MM25D(cfg, a, b); err != nil {
			t.Fatal(err)
		}
	}
	eight := pmm.Config{Q: 2, C: 2, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8}
	four := pmm.Config{Q: 2, C: 1, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8}
	for _, capN := range []int{64, 4096} {
		fresh, reused := NewSession(), NewSession()
		fresh.SetFlight(flight.New(capN, nil))
		reused.SetFlight(flight.New(capN, nil))
		run(fresh, four)
		run(reused, eight)
		old := map[*flight.Recorder]bool{}
		for _, rank := range reused.flightDist.Ranks() {
			old[reused.flightDist.Proc(rank)] = true
		}
		run(reused, four)
		ranks := reused.flightDist.Ranks()
		if len(old) != 8 || len(ranks) != 4 {
			t.Fatalf("cap %d: %d rings after the first machine, %d ranks after the second, want 8 and 4", capN, len(old), len(ranks))
		}
		for _, rank := range ranks {
			if !old[reused.flightDist.Proc(rank)] {
				t.Fatalf("cap %d: rank %d records on a new ring", capN, rank)
			}
		}
		got, want := reused.flightDist.Windows("check"), fresh.flightDist.Windows("check")
		if g, w := canon(t, got), canon(t, want); g != w {
			t.Fatalf("cap %d: reused rings' windows diverge from fresh ones:\nreused: %s\nfresh:  %s", capN, g, w)
		}
		if n := want[0].Window.TotalEvents; n == 0 || (capN == 64) != (n > int64(capN)) {
			t.Fatalf("cap %d: rank 0 recorded %d events; the case does not test what it says", capN, n)
		}
	}
}

func canon(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
