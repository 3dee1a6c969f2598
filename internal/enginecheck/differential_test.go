package enginecheck

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"writeavoid/internal/access"
	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
	"writeavoid/internal/extsort"
	"writeavoid/internal/fft"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/monitor"
	"writeavoid/internal/nbody"
	"writeavoid/internal/pmm"
	"writeavoid/internal/profile"
)

func levels3() []machine.Level {
	return []machine.Level{{Name: "L1"}, {Name: "L2"}, {Name: "NVM"}}
}

func levels2() []machine.Level {
	return []machine.Level{{Name: "DRAM"}, {Name: "NVM"}}
}

// assertIdentical runs drive under both engines and fails on the first
// divergence in events, stream bytes, span trees, or snapshots.
func assertIdentical(t *testing.T, levels []machine.Level, drive func(h *machine.Hierarchy)) {
	t.Helper()
	ref := Run(levels, true, drive)
	got := Run(levels, false, drive)
	if d := Diff(ref, got); d != "" {
		t.Fatal(d)
	}
	if len(ref.Events) == 0 {
		t.Fatal("kernel drove no events; the comparison is vacuous")
	}
}

func TestMatMulWAIdentical(t *testing.T) {
	a, b := matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)
	assertIdentical(t, levels3(), func(h *machine.Hierarchy) {
		p := &core.Plan{H: h, BlockSizes: []int{8, 32}, Order: core.OrderWA}
		if err := core.MatMul(p, matrix.New(64, 64), a, b); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMatMulNonWAIdentical(t *testing.T) {
	a, b := matrix.Random(64, 64, 3), matrix.Random(64, 64, 4)
	assertIdentical(t, levels3(), func(h *machine.Hierarchy) {
		p := &core.Plan{H: h, BlockSizes: []int{8, 32}, Order: core.OrderNonWA}
		if err := core.MatMul(p, matrix.New(64, 64), a, b); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLUIdentical(t *testing.T) {
	a := matrix.RandomSPD(64, 5)
	assertIdentical(t, levels2(), func(h *machine.Hierarchy) {
		p := &core.Plan{H: h, BlockSizes: []int{16}, Order: core.OrderWA}
		if err := core.LU(p, a.Clone()); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCholeskyIdentical(t *testing.T) {
	a := matrix.RandomSPD(64, 6)
	assertIdentical(t, levels2(), func(h *machine.Hierarchy) {
		p := &core.Plan{H: h, BlockSizes: []int{16}, Order: core.OrderWA}
		if err := core.Cholesky(p, a.Clone()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTracedMatMulIdentical drives a traced plan through both engines: the
// Tracer writes every element access straight into its sink while the
// driver's loads, stores and flops cross the engine. Both engines must agree
// on every observable and count what the untraced plan counts, and each
// run's trace must be, op for op, the trace of the same plan on a hierarchy
// with nothing attached, which is what the cache simulations consume.
func TestTracedMatMulIdentical(t *testing.T) {
	const n = 16
	a, b := matrix.Random(n, n, 7), matrix.Random(n, n, 8)
	lay := access.NewLayout(64)
	ra, rb, rc := lay.NewRegion(n, n), lay.NewRegion(n, n), lay.NewRegion(n, n)
	matmul := func(h *machine.Hierarchy, sink access.Sink) {
		p := &core.Plan{H: h, BlockSizes: []int{4}, Order: core.OrderWA}
		cm := matrix.New(n, n)
		if sink != nil {
			p.Trace = core.NewTracer(sink)
			p.Trace.Bind(a, ra)
			p.Trace.Bind(b, rb)
			p.Trace.Bind(cm, rc)
		}
		if err := core.MatMul(p, cm, a, b); err != nil {
			t.Fatal(err)
		}
	}
	run := func(ref bool) (Result, []access.Op) {
		var rec access.Recorder
		res := Run(levels2(), ref, func(h *machine.Hierarchy) { matmul(h, &rec) })
		return res, rec.Ops
	}
	refRes, refOps := run(true)
	gotRes, gotOps := run(false)
	if d := Diff(refRes, gotRes); d != "" {
		t.Fatal(d)
	}
	if len(refRes.Events) == 0 {
		t.Fatal("the traced plan drove no events")
	}
	counted := Run(levels2(), false, func(h *machine.Hierarchy) { matmul(h, nil) })
	if counted.Counters != gotRes.Counters {
		t.Fatalf("traced plan counts %s, the untraced plan %s", gotRes.Counters, counted.Counters)
	}
	var direct access.Recorder
	matmul(machine.New(false, levels2()...), &direct)
	if len(direct.Ops) == 0 {
		t.Fatal("trace emitted no ops")
	}
	for _, engine := range []struct {
		name string
		ops  []access.Op
	}{{"reference", refOps}, {"batched", gotOps}} {
		if len(engine.ops) != len(direct.Ops) {
			t.Fatalf("%s engine run traced %d ops, the bare run %d", engine.name, len(engine.ops), len(direct.Ops))
		}
		for i := range direct.Ops {
			if engine.ops[i] != direct.Ops[i] {
				t.Fatalf("%s engine run op %d = %+v, the bare run %+v", engine.name, i, engine.ops[i], direct.Ops[i])
			}
		}
	}
}

func TestNBodyIdentical(t *testing.T) {
	sys := nbody.RandomSystem(32, 9)
	assertIdentical(t, levels2(), func(h *machine.Hierarchy) {
		if _, err := nbody.Forces2WA(h, []int{8}, sys); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFFTExternalIdentical(t *testing.T) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	assertIdentical(t, levels2(), func(h *machine.Hierarchy) {
		fft.External(h, 64, append([]complex128(nil), x...))
	})
}

func TestExternalSortIdentical(t *testing.T) {
	data := make([]float64, 4096)
	s := uint64(1)
	for i := range data {
		s = s*6364136223846793005 + 1442695040888963407
		data[i] = float64(s>>33) / float64(1<<31)
	}
	assertIdentical(t, levels2(), func(h *machine.Hierarchy) {
		if _, err := extsort.Sort(h, 256, data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDist2SocketIdentical runs the 2.5D matmul on a 2-socket machine under
// both engines and compares every rank's snapshot — remote sub-counters
// included — plus the aggregate and the socket network counters.
func TestDist2SocketIdentical(t *testing.T) {
	const n = 32
	a, b := matrix.Random(n, n, 11), matrix.Random(n, n, 12)
	run := func(batchEvents int) string {
		cfg := pmm.Config{
			Q: 2, C: 1,
			M1: 1 << 20, M2: 1 << 24,
			B1: 8, B2: 8,
			UseL3:       true,
			Sockets:     2,
			BatchEvents: batchEvents,
		}
		prod, m, err := pmm.MM25D(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		type obs struct {
			Ranks  []machine.Snapshot
			Agg    machine.Snapshot
			Nets   any
			MaxNet any
		}
		o := obs{
			Ranks:  m.RankSnapshots(),
			Agg:    machine.SnapshotOf(levels3(), m.Aggregate()),
			Nets:   m.SocketNets(),
			MaxNet: m.MaxNet(),
		}
		out, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		// The numeric product must also match between engines (same input,
		// same schedule); fold it into the comparison blob.
		pj, _ := json.Marshal(prod)
		return string(out) + string(pj)
	}
	refRun := run(1)
	gotRun := run(0) // default batched capacity
	if refRun != gotRun {
		t.Fatal("2-socket dist run diverges between per-event and batched engines")
	}
	// A rank snapshot must actually carry remote traffic, or the remote
	// sub-counter comparison is vacuous.
	cfg := pmm.Config{Q: 2, C: 1, M1: 1 << 20, M2: 1 << 24, B1: 8, B2: 8, UseL3: true, Sockets: 2}
	_, m, err := pmm.MM25D(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	var remote int64
	for _, s := range m.RankSnapshots() {
		for _, ifc := range s.Interfaces {
			remote += ifc.RemoteLoadWords + ifc.RemoteStoreWords
		}
	}
	if remote == 0 {
		t.Fatal("2-socket run classified no traffic remote; comparison is vacuous")
	}
}

// TestSessionAllSinksIdentical is the engine differential for a fully
// observed Session: two streams, the profiler, the monitor with a violation
// hook freezing the flight ring, the histograms and the flight recorder all
// read the session's one ledger, over three kernels on hierarchies of two
// depths. Under the reference engine (batch capacity 1, so every event
// reaches the ledger as it is emitted) and the batched one, every stream
// byte, span, trace byte, violation, histogram bucket and flight window
// must be identical.
func TestSessionAllSinksIdentical(t *testing.T) {
	run := func(ref bool) string {
		lv := levels3()
		sess := experiments.NewSession()
		reg := monitor.NewRegistry()
		reg.Register(monitor.Theorem1(1))
		reg.Register(monitor.OutputFloor("matmul", 1<<40))
		mon := monitor.New(lv, reg)
		sess.SetMonitor(mon)
		var s7, s1000 bytes.Buffer
		sA, sB := machine.NewStreamRecorder(&s7, lv, 7), machine.NewStreamRecorder(&s1000, lv, 1000)
		sess.AddStream(sA)
		sess.AddStream(sB)
		prof := profile.NewProfiler(lv)
		sess.SetProfile(prof)
		fr := flight.New(64, lv)
		sess.SetFlight(fr)
		hists := monitor.NewHistogramRecorder(lv)
		hists.SetClock(func() time.Time { return time.Unix(0, 0) })
		sess.SetHistograms(hists)
		var caps []string
		mon.SetViolationHook(func(v monitor.Violation) {
			caps = append(caps, canonJSON(sess.FlightCapture(v).Window))
		})
		observe := func(levels []machine.Level) *machine.Hierarchy {
			h := machine.New(false, levels...)
			if ref {
				h.SetBatchCapacity(1)
			}
			return sess.Observe(h)
		}

		sess.Mark("matmul")
		a, b := matrix.Random(32, 32, 1), matrix.Random(32, 32, 2)
		if err := core.MatMul(&core.Plan{H: observe(lv), BlockSizes: []int{4, 16}, Order: core.OrderWA}, matrix.New(32, 32), a, b); err != nil {
			t.Fatal(err)
		}
		sess.Mark("lu")
		if err := core.LU(&core.Plan{H: observe(levels2()), BlockSizes: []int{8}, Order: core.OrderWA}, matrix.RandomSPD(32, 3)); err != nil {
			t.Fatal(err)
		}
		sess.Mark("sort")
		data := make([]float64, 2048)
		for i := range data {
			data[i] = float64((i * 7919) % 2048)
		}
		if _, err := extsort.Sort(observe(levels2()), 128, data); err != nil {
			t.Fatal(err)
		}
		viol := sess.Finish()
		hists.Finish()
		for _, s := range []*machine.StreamRecorder{sA, sB} {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var trace bytes.Buffer
		if err := prof.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if len(viol) == 0 || len(caps) == 0 {
			t.Fatal("no violation froze the ring; the comparison is vacuous")
		}
		return strings.Join([]string{s7.String(), s1000.String(), renderSpans(prof.Main.Roots()),
			trace.String(), prof.Summary(), canonJSON(viol), canonJSON(hists.Histograms()),
			strings.Join(caps, "\n"), canonJSON(fr.Capture("final")), canonJSON(mon.Snapshot())}, "\n--\n")
	}
	if refRun, gotRun := run(true), run(false); refRun != gotRun {
		t.Fatalf("a fully observed session diverges between engines:\nreference:\n%s\nbatched:\n%s", refRun, gotRun)
	}
}
