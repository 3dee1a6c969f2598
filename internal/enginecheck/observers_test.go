package enginecheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// program drives a random run over hierarchies of growing depth: loads,
// stores, residency marks and flops on one hierarchy at a time (switching
// flushes the one left, so delivery order is emission order), nested spans,
// and — through direct — charges made straight into the profiler's main
// tree's ledger the way krylov's Traffic meter makes them. Every hierarchy
// has a twin of batch capacity 1 that replays each call as it is made, so
// the references attached to the twins are fed in program order, direct
// charges included, whatever the batched side's delivery order is.
type program struct {
	rng    *rand.Rand
	attach func(h, twin *machine.Hierarchy)
	direct func(e machine.Event) // nil: no direct charges
	hs     []*machine.Hierarchy
	twins  []*machine.Hierarchy
	cur    int
	open   []bool // open spans, innermost last: true when opened directly
}

var spanNames = []string{"panel", "update", "C[0,1]", "step 3", "trsm"}

func (p *program) hierarchy() {
	if len(p.hs) > 0 {
		p.hs[p.cur].Flush()
	}
	if len(p.hs) == 0 || p.rng.Intn(3) == 0 {
		levels := 2 + p.rng.Intn(2) + len(p.hs)/3 // depth grows mid-run
		h := machine.New(false, machine.GenericLevels(levels)...)
		h.SetBatchCapacity(1 + p.rng.Intn(300))
		twin := machine.New(false, machine.GenericLevels(levels)...)
		twin.SetBatchCapacity(1)
		p.attach(h, twin)
		p.hs = append(p.hs, h)
		p.twins = append(p.twins, twin)
		p.cur = len(p.hs) - 1
		return
	}
	p.cur = p.rng.Intn(len(p.hs))
}

// do makes one call on the current hierarchy and on its twin.
func (p *program) do(f func(h *machine.Hierarchy)) {
	f(p.hs[p.cur])
	f(p.twins[p.cur])
}

func (p *program) step() {
	r := p.rng
	levels := p.hs[p.cur].NumLevels()
	words := int64(1 + r.Intn(64))
	switch k := r.Intn(20); {
	case k < 4:
		i, remote := r.Intn(levels-1), r.Intn(4) == 0
		p.do(func(h *machine.Hierarchy) {
			if remote {
				h.LoadRemote(i, words)
			} else {
				h.Load(i, words)
			}
		})
	case k < 7:
		i, remote := r.Intn(levels-1), r.Intn(4) == 0
		p.do(func(h *machine.Hierarchy) {
			if remote {
				h.StoreRemote(i, words)
			} else {
				h.Store(i, words)
			}
		})
	case k < 8:
		i := r.Intn(levels)
		p.do(func(h *machine.Hierarchy) { h.Init(i, words) })
	case k < 9:
		i := r.Intn(levels)
		p.do(func(h *machine.Hierarchy) { h.Discard(i, words) })
	case k < 13:
		p.do(func(h *machine.Hierarchy) { h.Flops(words) })
	case k < 15:
		name := spanNames[r.Intn(len(spanNames))]
		p.do(func(h *machine.Hierarchy) { h.Begin(name) })
		p.open = append(p.open, false)
	case k < 17:
		if len(p.open) > 0 {
			p.end()
		}
	case k < 18:
		p.hierarchy()
	default:
		if p.direct == nil {
			return
		}
		switch r.Intn(3) {
		case 0:
			p.charge(machine.Event{Kind: machine.EvBegin, Label: "direct"})
			p.open = append(p.open, true)
		case 1:
			p.charge(machine.Event{Kind: machine.EvStore, Words: words})
		default:
			p.charge(machine.Event{Kind: machine.EvLoad, Words: words})
		}
	}
}

// charge makes one direct charge. Recording directly syncs nothing, so the
// current hierarchy — the only one that can hold buffered events, since
// switching flushes the one left — is flushed first: every event emitted
// before the charge reaches every recorder before it does.
func (p *program) charge(e machine.Event) {
	p.hs[p.cur].Flush()
	p.direct(e)
}

// end closes the innermost open span through whichever path opened it.
func (p *program) end() {
	n := len(p.open) - 1
	if p.open[n] {
		p.charge(machine.Event{Kind: machine.EvEnd})
	} else {
		p.do((*machine.Hierarchy).End)
	}
	p.open = p.open[:n]
}

func (p *program) closeAll() {
	for len(p.open) > 0 {
		p.end()
	}
}

// flushAll flushes every hierarchy (the twins hold nothing).
func (p *program) flushAll() {
	for _, h := range p.hs {
		h.Flush()
	}
}

// recordDeltas is a prediction that records every phase delta it is given.
func recordDeltas(out *[]string) monitor.Prediction {
	return monitor.Prediction{Check: "record", Eval: func(k string, d machine.Snapshot) []monitor.Violation {
		*out = append(*out, k+" "+canonJSON(d))
		return nil
	}}
}

// The tentpole's differential: every sink reading one session ledger —
// two streams with their own cadences, the profiler's main tree with
// direct charges, the monitor with a violation hook that freezes the flight
// ring, the histograms and the flight recorder — against the per-sink
// references, attached to the capacity-1 twins of the session's
// hierarchies, fed every direct charge as it is made, and marked in the
// old Session order (streams, profiler, flight, monitor, histograms). So
// the references see the program's emission order, and a direct charge
// that overtook buffered events on the session side would show. Every
// stream byte, span, Self and Unattributed, trace byte, Summary line,
// monitor delta and violation, histogram bucket and flight window must
// match.
func TestSessionObserversMatchReference(t *testing.T) {
	everies := []int64{0, 1, 2, 3, 7, 50, 255, 256, 1000}
	for seed := int64(1); seed <= 48; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			everyA, everyB := everies[seed%9], everies[rng.Intn(len(everies))]
			capN := []int{4, 16, 64, 4096}[rng.Intn(4)]
			levels := machine.GenericLevels(2)
			if seed%3 == 0 {
				levels = []machine.Level{{Name: "fast", Size: 64}, {Name: "slow"}}
			}
			now := time.Unix(0, 0)
			clock := func() time.Time { return now }
			var newDeltas, refDeltas []string
			preds := func(out *[]string) []monitor.Prediction {
				return []monitor.Prediction{
					recordDeltas(out),
					monitor.OutputFloor("update", 1<<40),
					monitor.Theorem1(1),
				}
			}

			sess := experiments.NewSession()
			var bufA, bufB, rbufA, rbufB bytes.Buffer
			reg := monitor.NewRegistry()
			for _, p := range preds(&newDeltas) {
				reg.Register(p)
			}
			mon := monitor.New(levels, reg)
			sess.SetMonitor(mon)
			sA := machine.NewStreamRecorder(&bufA, levels, everyA)
			sB := machine.NewStreamRecorder(&bufB, levels, everyB)
			sess.AddStream(sA)
			sess.AddStream(sB)
			prof := profile.NewProfiler(levels)
			sess.SetProfile(prof)
			fr := flight.New(capN, levels)
			sess.SetFlight(fr)
			hists := monitor.NewHistogramRecorder(levels)
			hists.SetClock(clock)
			hists.SetFloor("panel", 100)
			sess.SetHistograms(hists)
			var newCaps, refCaps []string
			mon.SetViolationHook(func(v monitor.Violation) {
				newCaps = append(newCaps, canonJSON(sess.FlightCapture(v).Window))
			})

			rA, rB := newRefStream(&rbufA, levels, everyA), newRefStream(&rbufB, levels, everyB)
			rs := newRefSpanRecorder(levels)
			rf := newRefFlight(capN, levels)
			rm := newRefMonitor(levels, preds(&refDeltas))
			rh := newRefHistograms(levels, clock)
			rh.floors["panel"] = 100
			rm.hook = func(monitor.Violation) { refCaps = append(refCaps, canonJSON(rf.Capture("violation"))) }

			p := &program{rng: rng}
			p.attach = func(h, twin *machine.Hierarchy) {
				sess.Observe(h)
				for _, r := range []machine.Recorder{rA, rB, rs, rf, rm, rh} {
					twin.Attach(r)
				}
			}
			p.direct = func(e machine.Event) {
				prof.Main.Ledger().Record([]machine.Event{e})
				rs.record(e)
			}
			mark := func(name string) {
				sess.Mark(name)
				p.flushAll()
				rA.Phase(name)
				rB.Phase(name)
				rs.Mark(name)
				rf.Phase(name)
				rm.Phase(name)
				rh.Phase(name)
			}
			kernels := []string{"panel", "update", "sweep"}
			p.hierarchy()
			for i, n := 0, 300+rng.Intn(500); i < n; i++ {
				if rng.Intn(60) == 0 {
					p.closeAll()
					now = now.Add(time.Duration(1+rng.Intn(1000)) * time.Millisecond)
					mark(kernels[rng.Intn(len(kernels))])
				}
				p.step()
			}
			p.closeAll()
			now = now.Add(time.Second)
			newViol := sess.Finish()
			hists.Finish()
			p.flushAll()
			rf.Finish()
			refViol := rm.Finish()
			rh.Finish()
			for _, s := range []*machine.StreamRecorder{sA, sB} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			rA.Close()
			rB.Close()

			same := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Fatalf("%s diverges from the reference:\nledger:    %s\nreference: %s", what, got, want)
				}
			}
			same("stream A", bufA.String(), rbufA.String())
			same("stream B", bufB.String(), rbufB.String())
			same("monitor deltas", fmt.Sprint(newDeltas), fmt.Sprint(refDeltas))
			same("violations", canonJSON(newViol), canonJSON(refViol))
			same("monitor snapshot", canonJSON(mon.Snapshot()), canonJSON(rm.g.Snapshot()))
			same("monitor totals", fmt.Sprint(mon.TotalEvents(), mon.Phases()), fmt.Sprint(rm.total, rm.phases))
			same("histograms", canonJSON(hists.Histograms()), canonJSON(rh.Histograms()))
			same("violation windows", fmt.Sprint(newCaps), fmt.Sprint(refCaps))
			same("final window", canonJSON(fr.Capture("final")), canonJSON(rf.Capture("final")))

			// The tree is read mid-run by servers; read it once unfinished
			// so incremental materialization is exercised too.
			prof.Main.Roots()
			prof.Main.Finish()
			rs.Finish()
			same("span forest", renderForest(prof.Main.Roots()), renderRefForest(rs.roots))
			same("unattributed", canonJSON(prof.Main.Unattributed()), canonJSON(rs.Unattributed()))
			same("span total", canonJSON(prof.Main.Total()), canonJSON(rs.g.Snapshot()))
			var trace bytes.Buffer
			if err := prof.WriteTrace(&trace); err != nil {
				t.Fatal(err)
			}
			same("trace", trace.String(), string(refTrace(rs, nil)))
			same("summary", prof.Summary(), refSummary(rs, nil))
			if len(newDeltas) == 0 || bufA.Len() == 0 {
				t.Fatal("run closed no phase or streamed nothing; the comparison is vacuous")
			}
		})
	}
}

// The rank half: one ledger per rank, read by a span tree in a profiler
// group and by a flight ring in a flight group (what Session.distObserve
// builds), against a reference span recorder and flight recorder attached
// side by side to the same rank hierarchy. Two machines run in a row, the
// second group on the first group's rings (Group.Reuse, as distObserve does)
// with two to four ranks: its windows must equal those of fresh rings.
func TestRankObserversMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capN := []int{8, 64, 4096}[rng.Intn(3)]
			prof := profile.NewProfiler(nil)
			var refs []refGroup
			var prev *flight.Group
			for m, ranks := range []int{3, 2 + rng.Intn(3)} {
				name := fmt.Sprint("mm", m)
				pg := prof.Group(name)
				fg := flight.NewGroup(name, capN, nil)
				fg.Reuse(prev)
				prev = fg
				ref := refGroup{name: name}
				var refRings []*refFlight
				for rank := 0; rank < ranks; rank++ {
					l := machine.NewLedger(nil)
					pg.Follow(rank, l)
					fg.Follow(rank, l)
					rs, rf := newRefSpanRecorder(nil), newRefFlight(capN, nil)
					ref.recs = append(ref.recs, rs)
					refRings = append(refRings, rf)
					p := &program{rng: rng, attach: func(h, twin *machine.Hierarchy) {
						h.Attach(l)
						twin.Attach(rs)
						twin.Attach(rf)
					}}
					p.hierarchy()
					for i, n := 0, 100+rng.Intn(400); i < n; i++ {
						p.step()
					}
					if rng.Intn(2) == 0 {
						p.closeAll() // else Finish closes them
					}
					p.flushAll()
				}
				refs = append(refs, ref)
				windows := fg.Windows("violation")
				if len(windows) != ranks {
					t.Fatalf("machine %d: %d rank windows, want %d", m, len(windows), ranks)
				}
				for rank, w := range windows {
					got, want := canonJSON(w.Window), canonJSON(refRings[rank].Capture("violation"))
					if got != want {
						t.Fatalf("machine %d rank %d window diverges:\nledger:    %s\nreference: %s", m, rank, got, want)
					}
				}
				for rank, rs := range ref.recs {
					got := pg.Proc(rank)
					if a, b := renderForest(got.Roots()), renderRefForest(rs.roots); a != b {
						t.Fatalf("machine %d rank %d forest diverges:\nledger:\n%s\nreference:\n%s", m, rank, a, b)
					}
					if a, b := canonJSON(got.Unattributed()), canonJSON(rs.Unattributed()); a != b {
						t.Fatalf("machine %d rank %d unattributed diverges:\nledger:    %s\nreference: %s", m, rank, a, b)
					}
				}
			}
			var trace bytes.Buffer
			if err := prof.WriteTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if got, want := trace.String(), string(refTrace(newRefSpanRecorder(nil), refs)); got != want {
				t.Fatalf("trace diverges:\nledger:    %s\nreference: %s", got, want)
			}
			if got, want := prof.Summary(), refSummary(newRefSpanRecorder(nil), refs); got != want {
				t.Fatalf("summary diverges:\nledger:\n%s\nreference:\n%s", got, want)
			}
		})
	}
}
