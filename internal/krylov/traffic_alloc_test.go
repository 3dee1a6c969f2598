//go:build !race

package krylov

import (
	"testing"

	"writeavoid/internal/machine"
)

// A profiled solve records every charge and phase mark straight into a
// ledger. Each is handed over as a one-event block held in the Traffic
// itself, so once the ledger is warm no charge allocates.
func TestTrafficChargesAllocateNothing(t *testing.T) {
	l := machine.NewLedger(nil)
	tr := &Traffic{Rec: l}
	step := func() {
		tr.Begin("matrix powers")
		tr.R(64)
		tr.W(16)
		tr.End()
	}
	step()
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("Begin, R, W and End allocate %.2f per round, want 0", avg)
	}
	ifc := l.Snapshot().Interfaces[0]
	if ifc.LoadWords != tr.Reads || ifc.StoreWords != tr.Writes || tr.Writes == 0 {
		t.Fatalf("ledger folded %d loads and %d stores, Traffic counted %d and %d",
			ifc.LoadWords, ifc.StoreWords, tr.Reads, tr.Writes)
	}
}
