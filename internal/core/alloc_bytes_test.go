//go:build !race

// The race detector's own bookkeeping changes a run's byte count from run to
// run and adds stray allocations, so this file is left out of
// race-instrumented builds.

package core

import (
	"runtime"
	"testing"

	"writeavoid/internal/access"
)

// allocTrace is the three-level Figure 2 order at 256 x 64 x 256: 4.4e6
// accesses through 8x8 kernels.
func allocTrace() *MatMulTrace {
	return NewMatMulTrace(256, 64, 256, 64,
		TraceLevel{Block: 64, ContractionInner: true},
		TraceLevel{Block: 16, ContractionInner: false},
		TraceLevel{Block: 8, ContractionInner: false})
}

// A traced run carves its operands from the zero arena and its views stay
// on the stack, so what it allocates is the plan, the hierarchy and the
// tracer: 17 objects however many block steps the trace takes.
func TestMatMulTraceAllocs(t *testing.T) {
	tr := allocTrace()
	var sink access.SinkFunc = func(uint64, bool) {}
	if avg := testing.AllocsPerRun(2, func() { tr.Run(sink) }); avg > 20 {
		t.Errorf("MatMulTrace.Run allocates %v per call, want <= 20", avg)
	}
}

// After a collection, which empties any pool, a run allocates the same bytes
// as the run before it, and nowhere near an operand store: the plan, the
// hierarchy and the tracer with its block come to about 6.5 KB, while the
// three operands would be 768 KiB. That holds from the first run on, since
// the operands come from the zero arena. "The same" allows 1%: on a loaded
// host the runtime's own goroutines now and then allocate a few dozen bytes
// inside the window.
func TestMatMulTraceAllocatesNoOperandStore(t *testing.T) {
	tr := allocTrace()
	var sink access.SinkFunc = func(uint64, bool) {}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // fewer goroutines to allocate inside the window
	const store = (256*64 + 64*256 + 256*256) * 8
	var first uint64
	for run := range 5 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		tr.Run(sink)
		runtime.ReadMemStats(&m1)
		b := m1.TotalAlloc - m0.TotalAlloc
		if run == 1 { // run 0 also pays for setting up the measurement
			first = b
		}
		if d := int64(b) - int64(first); run > 1 && max(d, -d) > int64(first)/100 {
			t.Errorf("run %d allocated %d B, run 1 %d B", run, b, first)
		}
		if b >= store/32 {
			t.Errorf("run %d allocated %d B, want well under one operand store (%d B)", run, b, store)
		}
	}
	if n := len(zeroArena) + 1; len(zeros(n)) != n { // too large for the arena
		t.Errorf("zeros(%d) returns %d elements", n, len(zeros(n)))
	}
}
