package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/core"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/profile"
)

// matmulHeatmaps runs a traced two-level C += A*B with both heatmap modes
// attached and returns them plus the element base address of C. Row i of C
// is heatmap block i: the layout aligns regions to 8n bytes and the block
// size is n words. The Tracer emits through access.SinkFunc(h.Touch), so the
// touches reach the touch heatmap through the hierarchy; a traced plan emits
// the accesses in place of the arithmetic, so C keeps its zeros.
func matmulHeatmaps(t *testing.T, n, b int, order core.Order) (rng, tch *profile.HeatmapRecorder, cbase uint64) {
	t.Helper()
	lay := access.NewLayout(uint64(8 * n))
	ra, rb, rc := lay.NewRegion(n, n), lay.NewRegion(n, n), lay.NewRegion(n, n)
	h := machine.TwoLevel(int64(3 * b * b))
	rng = profile.NewRangeHeatmap(0, int64(n))
	tch = profile.NewTouchHeatmap(int64(n))
	h.Attach(rng)
	h.Attach(tch)
	tr := core.NewTracer(access.SinkFunc(h.Touch))
	am, bm, cm := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	tr.Bind(am, ra)
	tr.Bind(bm, rb)
	tr.Bind(cm, rc)
	p := &core.Plan{H: h, BlockSizes: []int{b}, Order: order, Trace: tr}
	if err := core.MatMul(p, cm, am, bm); err != nil {
		t.Fatal(err)
	}
	return rng, tch, rc.Base / 8
}

// The acceptance check of the paper's central claim, made spatial: at the
// slow interface the write-avoiding order writes each block of the output
// exactly once, while the k-outermost order rewrites it once per
// contraction step (n/b times).
func TestHeatmapWAMatMulWritesOutputOnce(t *testing.T) {
	const n, b = 16, 4
	rng, _, cbase := matmulHeatmaps(t, n, b, core.OrderWA)
	min, max := rng.WriteExtremes(cbase, n*n)
	if min != n || max != n {
		t.Errorf("WA: per-row slow writes min %d max %d, want uniform %d (exactly once)", min, max, n)
	}
}

func TestHeatmapNonWAMatMulRewritesOutput(t *testing.T) {
	const n, b = 16, 4
	rng, _, cbase := matmulHeatmaps(t, n, b, core.OrderNonWA)
	min, max := rng.WriteExtremes(cbase, n*n)
	if want := int64(n * (n / b)); min != want || max != want {
		t.Errorf("nonWA: per-row slow writes min %d max %d, want uniform %d (n/b rewrites)", min, max, want)
	}
}

// The element-level touch map shows where the avoided writes went: the
// processor updates every C element n/b times in both orders — write
// avoidance lives at the interface, not in the arithmetic.
func TestHeatmapTouchModeCountsProcessorWrites(t *testing.T) {
	const n, b = 16, 4
	for _, order := range []core.Order{core.OrderWA, core.OrderNonWA} {
		_, tch, cbase := matmulHeatmaps(t, n, b, order)
		min, max := tch.WriteExtremes(cbase, n*n)
		if want := int64(n * (n / b)); min != want || max != want {
			t.Errorf("%v: per-row element writes min %d max %d, want uniform %d", order, min, max, want)
		}
	}
}

func TestHeatmapBlocksAndRender(t *testing.T) {
	const n, b = 16, 4
	rng, _, cbase := matmulHeatmaps(t, n, b, core.OrderWA)
	if len(rng.Blocks()) == 0 {
		t.Fatal("no blocks saw traffic")
	}
	if rng.WriteCount(cbase) == 0 {
		t.Error("first C row has no recorded writes")
	}
	var buf bytes.Buffer
	rng.Render(&buf, cbase, n*n, 8)
	out := buf.String()
	if !strings.Contains(out, "write heatmap") {
		t.Fatalf("render header missing:\n%s", out)
	}
	// A uniformly written region renders as a solid field of the hottest
	// glyph.
	if !strings.Contains(out, "@@@@@@@@") {
		t.Errorf("uniform region did not render solid:\n%s", out)
	}
}

// The run spread over blocks: a range crossing block boundaries lands its
// words in each block proportionally.
func TestHeatmapAccumulateSplitsRuns(t *testing.T) {
	h := profile.NewRangeHeatmap(0, 8)
	h.Record([]machine.Event{{Kind: machine.EvRange, Arg: 0, Addr: 6, Words: 10, Write: true}})
	if got := h.WriteCount(0); got != 2 {
		t.Errorf("block 0 got %d words, want 2", got)
	}
	if got := h.WriteCount(8); got != 8 {
		t.Errorf("block 1 got %d words, want 8", got)
	}
	// Events at another interface, and bare touches, are ignored in range
	// mode.
	h.Record([]machine.Event{{Kind: machine.EvRange, Arg: 1, Addr: 0, Words: 5, Write: true}})
	h.Record([]machine.Event{{Kind: machine.EvTouch, Addr: 0, Write: true}})
	if got := h.WriteCount(0); got != 2 {
		t.Errorf("foreign events leaked into block 0: %d words", got)
	}
}
