//go:build !race

package experiments

import (
	"io"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// Span deltas are built on read now, not at every boundary; reading a full
// dist op's profile must still cost no more than it did when the deltas
// were snapshotted during the run. The bounds are the counts the
// snapshotting span recorder allocated on this op (Summary 68, WriteTrace
// 2,026,647; the ledger-backed recorder measures 68 and about 1.86 M).
func TestProfilerReadsAllocateNoMoreThanSnapshotting(t *testing.T) {
	s := NewSession()
	p := profile.NewProfiler(machine.GenericLevels(3))
	s.SetProfile(p)
	s.Table1(false)
	s.Table2(false)
	s.LU(false)
	s.NUMA(false, 2, machine.PlaceBlock)
	if got := testing.AllocsPerRun(3, func() { _ = p.Summary() }); got > 68 {
		t.Errorf("Summary allocates %v times, want at most 68", got)
	}
	if got := testing.AllocsPerRun(1, func() { _ = p.WriteTrace(io.Discard) }); got > 2026647 {
		t.Errorf("WriteTrace allocates %v times, want at most 2026647", got)
	}
}
