//go:build !race

package profile_test

import (
	"runtime"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// A span boundary — a push and a pop, from a hierarchy's marks through the
// ledger's span tap or from direct Begin/End — appends to the recorder's
// chunked logs and allocates nothing but a new chunk now and then (one per
// 128 records or 1,024 log words): none per call, amortized.
func TestSpanBoundaryAllocatesNothing(t *testing.T) {
	rec := profile.NewSpanRecorder(nil)
	h := machine.New(false, machine.GenericLevels(3)...)
	h.Attach(rec.Ledger())
	boundary := func() {
		h.Begin("C[0,1]")
		h.Load(1, 8)
		h.End()
		rec.Begin("direct")
		rec.End()
	}
	for i := 0; i < 1<<14; i++ {
		boundary()
	}
	if got := testing.AllocsPerRun(2000, boundary); got != 0 {
		t.Fatalf("a span boundary allocates %v times, want 0 amortized", got)
	}
}

// The bytes a rank-like span tree allocates per boundary, log growth
// included: a private ledger growing to three levels, one span per tile
// whose body moves a handful of counters, as a pmm rank's tile spans do.
// Each boundary logs a mask and the fields that moved, with a whole row
// at every 32nd, and its boundary and span records go into chunks that
// never move; measured at 95.8 bytes per boundary (268.6 with the records
// grown by append, 474.9 with whole rows as well), bounded here at that
// plus 10%.
func TestSpanBoundaryBytes(t *testing.T) {
	const spans = 1 << 15
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := profile.NewSpanRecorder(nil)
	h := machine.New(false, machine.GenericLevels(3)...)
	h.Attach(rec.Ledger())
	for i := 0; i < spans; i++ {
		h.Begin("C[0,1]")
		h.Load(1, 64)
		h.Load(0, 16)
		h.Flops(512)
		h.Store(0, 16)
		h.End()
	}
	h.Flush()
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / (2 * spans)
	t.Logf("%.1f bytes per boundary", per)
	if per > 105.4 {
		t.Fatalf("a span boundary allocates %.1f bytes, want at most 105.4", per)
	}
}
