package experiments

import (
	"strings"
	"testing"
)

// The experiment drivers run in quick mode and the shapes the paper reports
// must hold even at the reduced scale.

func TestFig2Shapes(t *testing.T) {
	panels := NewSession().Fig2(true)
	if len(panels) != 6 {
		t.Fatalf("Figure 2 has 6 panels, got %d", len(panels))
	}
	co := panels[0]
	last := co.Points[len(co.Points)-1]
	first := co.Points[0]
	// (a) CO victims.M grow with the middle dimension once A and B
	// overflow the cache (by 2x already at the quick-mode endpoint).
	if last.VictimsM < 2*first.VictimsM {
		t.Errorf("CO victims.M should grow with mid: %d -> %d", first.VictimsM, last.VictimsM)
	}
	// ...and fills roughly track the ideal-cache estimate (within 4x).
	if last.IdealMisses <= 0 || last.FillsE > 4*last.IdealMisses || 4*last.FillsE < last.IdealMisses {
		t.Errorf("CO fills %d vs ideal %d out of corridor", last.FillsE, last.IdealMisses)
	}
	// (c)-(f): under true LRU every WA panel pins victims.M to the write
	// lower bound (Prop 6.1 for the 5-fit blocks; measured to hold for
	// the larger ones too at this geometry) and beats CO at the largest
	// mid.
	for _, p := range panels[2:] {
		lastWA := p.Points[len(p.Points)-1]
		if lastWA.VictimsM > 3*lastWA.WriteLB/2 {
			t.Errorf("%s: victims.M %d above 1.5x write LB %d", p.Name, lastWA.VictimsM, lastWA.WriteLB)
		}
		if lastWA.VictimsM >= last.VictimsM {
			t.Errorf("%s: WA order should beat CO (%d vs %d)", p.Name, lastWA.VictimsM, last.VictimsM)
		}
	}
	// (b): the tuned-but-write-oblivious order is no better than CO on
	// write-backs at large mid.
	tuned := panels[1].Points[len(panels[1].Points)-1]
	if tuned.VictimsM <= 2*tuned.WriteLB {
		t.Errorf("tuned stand-in unexpectedly write-avoiding: %d vs LB %d", tuned.VictimsM, tuned.WriteLB)
	}
	if tuned.VictimsM < last.VictimsM {
		t.Errorf("tuned stand-in should be no better than CO: %d vs %d", tuned.VictimsM, last.VictimsM)
	}
	out := FormatPanels(panels)
	if !strings.Contains(out, "fig2a") || !strings.Contains(out, "VICTIMS.M") {
		t.Error("format output incomplete")
	}
}

func TestFig5Shapes(t *testing.T) {
	panels := NewSession().Fig5(true)
	if len(panels) != 8 {
		t.Fatalf("Figure 5 has 8 panels, got %d", len(panels))
	}
	// For each block size, compare the multi-level (left column) and
	// two-level (right column) orders at the largest mid: the two-level
	// order's write-backs must not exceed the multi-level order's, and
	// for the 3-fit block the gap must be pronounced.
	for i := 0; i < len(panels); i += 2 {
		ml := panels[i].Points[len(panels[i].Points)-1]
		tl := panels[i+1].Points[len(panels[i+1].Points)-1]
		if tl.VictimsM > ml.VictimsM {
			t.Errorf("%s: two-level order (%d) should not exceed multi-level (%d)",
				panels[i+1].Name, tl.VictimsM, ml.VictimsM)
		}
		// The right column pins victims.M to the lower bound for every
		// block size (the paper's central Fig. 5 observation).
		if tl.VictimsM > 3*tl.WriteLB/2 {
			t.Errorf("%s: two-level order %d above 1.5x write LB %d",
				panels[i+1].Name, tl.VictimsM, tl.WriteLB)
		}
	}
	// The largest (3-fit) block with the multi-level order is the
	// pathological case of the paper's left column.
	big := panels[len(panels)-2]
	if pt := big.Points[len(big.Points)-1]; pt.VictimsM < 2*pt.WriteLB {
		t.Errorf("3-fit multi-level order should blow past the LB: %d vs %d", pt.VictimsM, pt.WriteLB)
	}
}

func TestSec4Rows(t *testing.T) {
	rows := NewSession().Sec4(true)
	if len(rows) != 6 {
		t.Fatalf("want 6 kernels, got %d", len(rows))
	}
	for _, r := range rows {
		if r.WAStores != r.OutputWords {
			t.Errorf("%s: WA stores %d != output %d", r.Kernel, r.WAStores, r.OutputWords)
		}
		if r.NonWAStores <= r.WAStores {
			t.Errorf("%s: nonWA stores %d should exceed WA %d", r.Kernel, r.NonWAStores, r.WAStores)
		}
	}
	out := FormatSec4(rows)
	if !strings.Contains(out, "cholesky") || !strings.Contains(out, "qr") {
		t.Error("format")
	}
}

func TestSec3Rows(t *testing.T) {
	rows := NewSession().Sec3(true)
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Fraction < 0.2 {
			t.Errorf("%s M=%d: store fraction %.3f should stay constant-order", r.Algorithm, r.M, r.Fraction)
		}
		if r.Stores < r.Thm2Bound {
			t.Errorf("%s M=%d: stores %d below Theorem 2 bound %d", r.Algorithm, r.M, r.Stores, r.Thm2Bound)
		}
	}
	if !strings.Contains(FormatSec3(rows), "strassen") {
		t.Error("format")
	}
}

func TestSec5Rows(t *testing.T) {
	rows := NewSession().Sec5(true)
	for _, r := range rows {
		if r.WAVictimsM > 2*r.OutputLines {
			t.Errorf("cache %d: WA victims %d far above output %d", r.CacheBytes, r.WAVictimsM, r.OutputLines)
		}
	}
	// CO write-backs grow as the cache shrinks; WA's stay flat.
	if rows[len(rows)-1].COVictimsM <= rows[0].COVictimsM {
		t.Error("CO victims should grow as cache shrinks")
	}
	if !strings.Contains(FormatSec5(rows), "Theorem 3") {
		t.Error("format")
	}
}

func TestSec2Report(t *testing.T) {
	r := NewSession().Sec2Report()
	if !strings.Contains(r, "Theorem 1") || !strings.Contains(r, "true") {
		t.Fatalf("bad report:\n%s", r)
	}
}

func TestTable1Measured(t *testing.T) {
	rows := NewSession().Table1(true)
	if len(rows) != 3 {
		t.Fatalf("want 3 algorithms, got %d", len(rows))
	}
	// Only the L3 variant touches NVM.
	if rows[0].NVMWrites != 0 || rows[1].NVMWrites != 0 {
		t.Error("L2-only algorithms must not write NVM")
	}
	if rows[2].NVMWrites == 0 {
		t.Error("2.5DMML3 must write NVM")
	}
	// All three do identical aggregate local L2->L1 work per the paper's
	// Table 1 (per-processor it is n^3/P, and P differs across columns).
	if rows[0].L2L1Loads*int64(rows[0].P) != rows[1].L2L1Loads*int64(rows[1].P) {
		t.Errorf("aggregate L2->L1 loads differ: %d*%d vs %d*%d",
			rows[0].L2L1Loads, rows[0].P, rows[1].L2L1Loads, rows[1].P)
	}
}

func TestTable2Measured(t *testing.T) {
	rows := NewSession().Table2(true)
	if len(rows) != 2 {
		t.Fatal("two algorithms")
	}
	ool2, summa := rows[0], rows[1]
	if float64(ool2.NVMWrites) <= 2*ool2.W1Bound {
		t.Error("ooL2 should miss the W1 bound")
	}
	if float64(summa.NVMWrites) > 2*summa.W1Bound {
		t.Error("SUMMA should attain the W1 bound")
	}
	if float64(summa.NetWords) <= 2*summa.W2Bound {
		t.Error("SUMMA should miss the W2 bound")
	}
}

func TestLURows(t *testing.T) {
	rows := NewSession().LU(true)
	if len(rows) != 4 {
		t.Fatal("LU and Cholesky, LL and RL each")
	}
	for i := 0; i < 4; i += 2 {
		ll, rl := rows[i], rows[i+1]
		if ll.NVMWrites > 2*ll.PerProc {
			t.Errorf("%s NVM writes %d should stay near n^2/P=%d", ll.Algorithm, ll.NVMWrites, ll.PerProc)
		}
		if rl.NVMWrites <= ll.NVMWrites {
			t.Errorf("%s should write more NVM than %s: %d vs %d",
				rl.Algorithm, ll.Algorithm, rl.NVMWrites, ll.NVMWrites)
		}
	}
}

func TestMultiLevelRows(t *testing.T) {
	rows := NewSession().MultiLevel(true)
	if len(rows) != 2 {
		t.Fatal("two orders")
	}
	for _, r := range rows {
		// Memory writes near the output bound (both orders use 5-fit
		// blocks at the last level here).
		if r.L3VictimsM > 3*r.WriteLB/2 {
			t.Errorf("%s: memory writes %d above 1.5x LB %d", r.Order, r.L3VictimsM, r.WriteLB)
		}
		// Theorem 1's flavor at the upper levels: L1 write-backs are
		// necessarily far above the output size.
		if r.L1VictimsM < 4*r.WriteLB {
			t.Errorf("%s: L1 victims %d suspiciously low", r.Order, r.L1VictimsM)
		}
		if r.L2VictimsM <= r.L3VictimsM {
			t.Errorf("%s: expected more L2 than memory write-backs", r.Order)
		}
	}
	// The rows are exact: every level is a set-associative cache.Cache
	// (cache_test.go pins it against the per-set reference it replaced).
	want := []MultiLevelRow{
		{Order: "multi-level WA (Fig 4a)", L1VictimsM: 39744, L2VictimsM: 6396, L3VictimsM: 1152, WriteLB: 1152},
		{Order: "two-level WA (Fig 4b)", L1VictimsM: 34560, L2VictimsM: 4650, L3VictimsM: 1164, WriteLB: 1152},
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
	if !strings.Contains(FormatMultiLevel(rows), "future work") {
		t.Error("format")
	}
}

func TestSMPReportShapes(t *testing.T) {
	out := NewSession().SMPReport(true)
	if !strings.Contains(out, "depth-first") || !strings.Contains(out, "breadth-first") {
		t.Fatalf("bad report:\n%s", out)
	}
}

func TestSec9ReportShapes(t *testing.T) {
	out := NewSession().Sec9Report(true)
	if !strings.Contains(out, "mergesort") {
		t.Fatalf("bad report:\n%s", out)
	}
}

func TestRealCacheCrossCheckOrdering(t *testing.T) {
	wa, co := NewSession().RealCacheCrossCheck()
	if wa >= co {
		t.Fatalf("WA order should beat CO under CLOCK3: %d vs %d", wa, co)
	}
	// The 16-way CLOCK3 counts themselves are exact.
	if wa != 8411 || co != 17215 {
		t.Fatalf("WA, CO write-backs = %d, %d, want 8411, 17215", wa, co)
	}
}

func TestKrylovRows(t *testing.T) {
	rows := NewSession().Krylov(true)
	if len(rows) != 6 {
		t.Fatal("three s values x two dimensionalities")
	}
	prev := map[int]float64{}
	for _, r := range rows {
		if r.WriteRatio < float64(r.S)/2 {
			t.Errorf("d=%d s=%d: write ratio %.2f below s/2", r.Dim, r.S, r.WriteRatio)
		}
		if r.WriteRatio <= prev[r.Dim] {
			t.Errorf("d=%d: write ratio should grow with s: %.2f after %.2f", r.Dim, r.WriteRatio, prev[r.Dim])
		}
		prev[r.Dim] = r.WriteRatio
		if r.FlopsOverhead > 2.5 {
			t.Errorf("d=%d s=%d: streaming flop overhead %.2fx exceeds ~2x", r.Dim, r.S, r.FlopsOverhead)
		}
		if r.MaxSolDiff > 1e-5 {
			t.Errorf("d=%d s=%d: CA-CG diverges from CG by %g", r.Dim, r.S, r.MaxSolDiff)
		}
	}
	if !strings.Contains(FormatKrylov(rows), "W12") {
		t.Error("format")
	}
}
