package core

import (
	"slices"
	"sync"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// Block views are values that never outlive a gemmLevel step, so the
// blocked drivers keep them on the stack: a three-level MatMul allocates
// nothing, whatever its loop order. A view that escapes again costs an
// allocation per block step (thousands per call here).
func TestMatMulAllocatesNothing(t *testing.T) {
	const n = 96
	a, b, c := matrix.Random(n, n, 1), matrix.Random(n, n, 2), matrix.New(n, n)
	for _, order := range []Order{OrderWA, OrderNonWA} {
		h := machine.New(true,
			machine.Level{Name: "L1", Size: 3 * 8 * 8},
			machine.Level{Name: "L2", Size: 3 * 24 * 24},
			machine.Level{Name: "L3", Size: 3 * 48 * 48},
			machine.Level{Name: "Mem"})
		p := &Plan{H: h, BlockSizes: []int{8, 24, 48}, Order: order}
		if avg := testing.AllocsPerRun(5, func() {
			if err := MatMul(p, c, a, b); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: MatMul allocates %v per call, want 0", order, avg)
		}
	}
}

// Runs on several goroutines at once carve operands of several sizes from
// the one zero arena; under the race detector, a run that wrote its
// operands would race with the others. Each run emits the same stream as a
// lone one.
func TestMatMulTraceConcurrentRuns(t *testing.T) {
	traces := []*MatMulTrace{
		NewMatMulTrace(32, 16, 32, 64, TraceLevel{Block: 8, ContractionInner: true}),
		NewMatMulTrace(16, 8, 24, 64,
			TraceLevel{Block: 8, ContractionInner: false},
			TraceLevel{Block: 4, ContractionInner: true}),
	}
	want := make([][]access.Op, len(traces))
	for i, tr := range traces {
		var r access.Recorder
		tr.Run(&r)
		want[i] = r.Ops
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 4 {
				i := (g + n) % len(traces)
				var r access.Recorder
				traces[i].Run(&r)
				if !slices.Equal(r.Ops, want[i]) {
					t.Errorf("goroutine %d, run %d: trace %d emitted %d ops unlike a lone run's %d", g, n, i, len(r.Ops), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}
