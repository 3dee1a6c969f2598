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
// were snapshotted during the run. Summary's bound is the count the
// snapshotting span recorder allocated on this op (68, as now). WriteTrace's
// is the count measured once it encoded its events itself, rendering each
// recorder from its boundary log at Write (2,271 allocations, 0.3 MB), plus
// 1%; it made 1,752,082 (254 MB) with a map of arguments per event encoded
// by encoding/json, about 1.86 M with a fmt.Sprintf per key per span, and
// 2,026,647 with the snapshotting recorder.
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
	if got := testing.AllocsPerRun(1, func() { _ = p.WriteTrace(io.Discard) }); got > 2293 {
		t.Errorf("WriteTrace allocates %v times, want at most 2293", got)
	}
}
