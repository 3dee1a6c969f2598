//go:build !race

package profile_test

import (
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// A span boundary — a push and a pop, from a hierarchy's marks through the
// ledger's span tap or from direct Begin/End — appends to the recorder's
// logs and allocates nothing once they have grown.
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
