package profile_test

import (
	"fmt"
	"strings"
	"testing"

	"writeavoid/internal/core"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/pmm"
	"writeavoid/internal/profile"
)

// assertZeroSnap fails unless every linear counter of s is zero: the form the
// exactness identities take after moving everything to one side.
func assertZeroSnap(t *testing.T, what string, s machine.Snapshot) {
	t.Helper()
	if s.Flops != 0 {
		t.Errorf("%s: flops not zero: %d", what, s.Flops)
	}
	for i, ifc := range s.Interfaces {
		if ifc.LoadWords != 0 || ifc.LoadMsgs != 0 || ifc.StoreWords != 0 || ifc.StoreMsgs != 0 {
			t.Errorf("%s: interface %d not zero: %+v", what, i, ifc)
		}
	}
	for i, lv := range s.Levels {
		if lv.InitWords != 0 || lv.DiscardWords != 0 || lv.Occupancy != 0 {
			t.Errorf("%s: level %d not zero: %+v", what, i, lv)
		}
	}
}

// checkSpanExactness pins the tree invariant on a finished recorder: for
// every span Self + Σ children.Delta == Delta, and Σ roots.Delta plus
// Unattributed == Total.
func checkSpanExactness(t *testing.T, r *profile.SpanRecorder) {
	t.Helper()
	sum := machine.Snapshot{}
	first := true
	for _, root := range r.Roots() {
		root.Walk(func(s *profile.Span, _ int) {
			if s.End < s.Start {
				t.Errorf("span %q: End clock %d before Start %d", s.Name, s.End, s.Start)
			}
			self := s.Self()
			for _, c := range s.Children {
				self = self.Add(c.Delta)
			}
			assertZeroSnap(t, fmt.Sprintf("span %q: Self+children-Delta", s.Name), self.Sub(s.Delta))
		})
		if first {
			sum = root.Delta
			first = false
		} else {
			sum = sum.Add(root.Delta)
		}
	}
	if first {
		sum = r.Total().Sub(r.Total()) // zero of the right geometry
	}
	assertZeroSnap(t, "roots+unattributed-total", sum.Add(r.Unattributed()).Sub(r.Total()))
}

func TestSpanTreeSequentialCholesky(t *testing.T) {
	const n, b = 12, 4
	run := func() (*profile.SpanRecorder, *core.Plan) {
		p := core.TwoLevelPlan(int64(3*b*b), b, core.OrderWA)
		rec := profile.NewSpanRecorder(nil)
		p.H.Attach(rec.Ledger())
		if !p.H.Marking() {
			t.Fatal("attaching a SpanRecorder must turn on Marking")
		}
		a := matrix.RandomSPD(n, 1)
		if err := core.Cholesky(p, a); err != nil {
			t.Fatal(err)
		}
		rec.Finish()
		return rec, p
	}
	rec, p := run()

	roots := rec.Roots()
	if len(roots) != n/b {
		t.Fatalf("want %d panel roots, got %d", n/b, len(roots))
	}
	for i, root := range roots {
		if want := fmt.Sprintf("panel %d", i); root.Name != want {
			t.Errorf("root %d named %q, want %q", i, root.Name, want)
		}
		if len(root.Children) == 0 {
			t.Errorf("root %q has no children", root.Name)
		}
		for _, c := range root.Children {
			if c.Name != "factor" && c.Name != "trsm" && c.Name != "update" {
				t.Errorf("unexpected child span %q under %q", c.Name, root.Name)
			}
		}
	}
	checkSpanExactness(t, rec)

	// The recorder counts the same events as the hierarchy's default
	// counters.
	hs, ts := p.H.Snapshot(), rec.Total()
	if len(hs.Interfaces) != len(ts.Interfaces) {
		t.Fatalf("geometry mismatch: %d vs %d interfaces", len(hs.Interfaces), len(ts.Interfaces))
	}
	for i := range hs.Interfaces {
		a, b := hs.Interfaces[i], ts.Interfaces[i]
		if a.LoadWords != b.LoadWords || a.StoreWords != b.StoreWords ||
			a.LoadMsgs != b.LoadMsgs || a.StoreMsgs != b.StoreMsgs {
			t.Errorf("interface %d: hierarchy %+v != recorder %+v", i, a, b)
		}
	}
	if hs.Flops != ts.Flops {
		t.Errorf("flops: hierarchy %d != recorder %d", hs.Flops, ts.Flops)
	}

	// The clock is deterministic: replaying the run reproduces the exact
	// span boundaries.
	rec2, _ := run()
	if len(rec2.Roots()) != len(roots) {
		t.Fatalf("replay produced %d roots, want %d", len(rec2.Roots()), len(roots))
	}
	for i, root := range roots {
		r2 := rec2.Roots()[i]
		if r2.Name != root.Name || r2.Start != root.Start || r2.End != root.End {
			t.Errorf("replay root %d: %q [%d,%d] vs %q [%d,%d]",
				i, r2.Name, r2.Start, r2.End, root.Name, root.Start, root.End)
		}
	}
}

// Span marks must not perturb the counters the paper's bounds are stated in:
// the same MatMul counts identically with and without attribution attached.
func TestSpanMarksDoNotPerturbCounters(t *testing.T) {
	const m, n, l, b = 8, 12, 16, 4
	count := func(attach bool) machine.Snapshot {
		p := core.TwoLevelPlan(int64(3*b*b), b, core.OrderWA)
		if attach {
			p.H.Attach(profile.NewSpanRecorder(nil).Ledger())
		}
		c := matrix.New(m, l)
		if err := core.MatMul(p, c, matrix.Random(m, n, 1), matrix.Random(n, l, 2)); err != nil {
			t.Fatal(err)
		}
		return p.H.Snapshot()
	}
	assertZeroSnap(t, "instrumented-bare", count(true).Sub(count(false)))
}

func TestSpanExactnessDistMM25D(t *testing.T) {
	prof := profile.NewProfiler(machine.GenericLevels(3))
	g := prof.Group("mm25d")
	cfg := pmm.Config{Q: 2, C: 1, M1: 48, B1: 4, M2: 4096, Observe: g.Recorder}
	n := 16
	a, b := matrix.Random(n, n, 3), matrix.Random(n, n, 4)
	got, m, err := pmm.MM25D(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, matrix.Mul(a, b)); d > 1e-10 {
		t.Fatalf("instrumented product wrong, diff %g", d)
	}

	ranks := g.Ranks()
	if len(ranks) != cfg.P() {
		t.Fatalf("observed %d ranks, want %d", len(ranks), cfg.P())
	}
	var flops int64
	for _, rank := range ranks {
		rec := g.Proc(rank)
		rec.Finish()
		checkSpanExactness(t, rec)
		names := map[string]bool{}
		for _, root := range rec.Roots() {
			names[root.Name] = true
		}
		for _, want := range []string{"bcast", "skew", "step 0", "reduce"} {
			if !names[want] {
				t.Errorf("rank %d: missing superstep span %q (have %v)", rank, want, names)
			}
		}
		flops += rec.Total().Flops
	}

	// Each rank's recorder saw exactly its processor's events, so the
	// per-rank totals sum to the machine-wide aggregate.
	agg := machine.SnapshotOf([]machine.Level{{Name: "L1"}, {Name: "L2"}, {Name: "NVM"}}, m.Aggregate())
	if flops != agg.Flops {
		t.Errorf("summed rank flops %d != aggregate %d", flops, agg.Flops)
	}
	var loads, stores int64
	for _, rank := range ranks {
		total := g.Proc(rank).Total()
		for _, ifc := range total.Interfaces {
			loads += ifc.LoadWords
			stores += ifc.StoreWords
		}
	}
	var aggLoads, aggStores int64
	for _, ifc := range agg.Interfaces {
		aggLoads += ifc.LoadWords
		aggStores += ifc.StoreWords
	}
	if loads != aggLoads || stores != aggStores {
		t.Errorf("summed rank traffic %d/%d != aggregate %d/%d", loads, stores, aggLoads, aggStores)
	}
}

func TestSpanEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unbalanced End did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "span End without matching Begin") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	profile.NewSpanRecorder(nil).End()
}

func TestSpanMarkPartitionsRun(t *testing.T) {
	rec := profile.NewSpanRecorder(machine.GenericLevels(2))
	rec.Mark("alpha")
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Words: 10}})
	rec.Begin("inner")
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Words: 4}})
	rec.Mark("beta") // closes inner and alpha
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvFlops, Words: 7}})
	rec.Finish()
	roots := rec.Roots()
	if len(roots) != 2 || roots[0].Name != "alpha" || roots[1].Name != "beta" {
		t.Fatalf("want roots [alpha beta], got %v", roots)
	}
	if got := roots[0].Delta.Interfaces[0].LoadWords; got != 10 {
		t.Errorf("alpha loads = %d, want 10", got)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Delta.Interfaces[0].StoreWords != 4 {
		t.Errorf("inner span lost its store delta: %+v", roots[0].Children)
	}
	if roots[1].Delta.Flops != 7 {
		t.Errorf("beta flops = %d, want 7", roots[1].Delta.Flops)
	}
	checkSpanExactness(t, rec)
	assertZeroSnap(t, "marked run unattributed", rec.Unattributed())
}
