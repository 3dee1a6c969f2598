package smp

import (
	"testing"

	"writeavoid/internal/machine"
)

// Placing workers on sockets must not change what is counted, only how it is
// classified: totals match an unplaced run exactly, and the remote tallies in
// the Result and the merged counters agree.
func TestRunParallelPlacedSplitsButPreservesTotals(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 4)

	flatRec := machine.NewLedger(nil)
	flat, err := RunParallel(sched, flatRec)
	if err != nil {
		t.Fatal(err)
	}
	if flat.RemoteAccesses != 0 {
		t.Fatalf("unplaced run tallied %d remote accesses", flat.RemoteAccesses)
	}

	// Home every even line on socket 0, every odd line on socket 1: with
	// round-robin worker placement some accesses must cross.
	placedRec := machine.NewLedger(nil)
	plan := SocketPlan{
		Topo:      machine.Topology{Sockets: 2},
		Placement: machine.PlaceRoundRobin,
		Home:      func(addr uint64) int { return int(addr/lineB) % 2 },
	}
	placed, err := RunParallelPlaced(sched, placedRec, plan)
	if err != nil {
		t.Fatal(err)
	}
	if placed.TasksRun != flat.TasksRun || placed.AccessesRun != flat.AccessesRun {
		t.Fatalf("placed run counts differ: %+v vs %+v", placed, flat)
	}
	if placed.RemoteAccesses == 0 {
		t.Fatal("cross-socket plan tallied no remote accesses")
	}
	if placed.RemoteAccesses >= placed.AccessesRun {
		t.Fatalf("remote %d must be a strict subset of accesses %d",
			placed.RemoteAccesses, placed.AccessesRun)
	}

	fc, pc := flatRec.Snapshot(true), placedRec.Snapshot(true)
	if fc.TouchReads != pc.TouchReads || fc.TouchWrites != pc.TouchWrites {
		t.Fatalf("touch totals differ: flat (%d,%d) placed (%d,%d)",
			fc.TouchReads, fc.TouchWrites, pc.TouchReads, pc.TouchWrites)
	}
	if got := pc.RemoteTouchReads + pc.RemoteTouchWrites; got != placed.RemoteAccesses {
		t.Fatalf("recorder remote touches %d != result tally %d", got, placed.RemoteAccesses)
	}
	if fc.RemoteTouchReads != 0 || fc.RemoteTouchWrites != 0 {
		t.Fatal("unplaced recorder saw remote touches")
	}
}

// A plan with no Home function (or a flat topology) classifies nothing: the
// run is bit-identical to RunParallel.
func TestRunParallelPlacedFlatIsIdentity(t *testing.T) {
	tasks, _ := MatMulTasks(16, 16, 16, 8, lineB)
	sched := BreadthFirst(tasks, 3)

	for _, plan := range []SocketPlan{
		{},                                   // zero plan
		{Topo: machine.Topology{Sockets: 2}}, // sockets but no Home
		{Topo: machine.Topology{Sockets: 1}, // Home but one socket
			Home: func(addr uint64) int { return 1 }},
	} {
		rec := machine.NewLedger(nil)
		res, err := RunParallelPlaced(sched, rec, plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.RemoteAccesses != 0 {
			t.Fatalf("plan %+v tallied %d remote accesses", plan, res.RemoteAccesses)
		}
		cs := rec.Snapshot(true)
		if cs.RemoteTouchReads != 0 || cs.RemoteTouchWrites != 0 {
			t.Fatalf("plan %+v recorded remote touches", plan)
		}
	}
}
