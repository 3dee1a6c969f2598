package smp

import (
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// The parallel replay's merged touch totals equal the serial round-robin
// replay's access counts, however the goroutines interleave.
func TestRunParallelMatchesSerialTotals(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 4)

	llc := cache.NewFALRU(1<<20, lineB)
	serial, err := Run(llc, sched, 64)
	if err != nil {
		t.Fatal(err)
	}

	rec := machine.NewLedger(nil)
	par, err := RunParallel(sched, rec)
	if err != nil {
		t.Fatal(err)
	}
	if par.TasksRun != serial.TasksRun {
		t.Fatalf("parallel ran %d tasks, serial %d", par.TasksRun, serial.TasksRun)
	}
	if par.AccessesRun != serial.AccessesRun {
		t.Fatalf("parallel ran %d accesses, serial %d", par.AccessesRun, serial.AccessesRun)
	}
	cs := rec.Snapshot(true)
	if got := cs.TouchReads + cs.TouchWrites; got != serial.AccessesRun {
		t.Fatalf("merged touches %d != serial accesses %d", got, serial.AccessesRun)
	}
	var writes int64
	for _, q := range sched.Queues {
		for _, task := range q {
			for _, op := range task.Ops {
				if op.Write {
					writes++
				}
			}
		}
	}
	if cs.TouchWrites != writes {
		t.Fatalf("merged writes %d != schedule writes %d", cs.TouchWrites, writes)
	}
}

// Counting is schedule-independent: depth-first and breadth-first move the
// same accesses, so the parallel totals agree even though the cache behavior
// (what Run measures) differs drastically.
func TestRunParallelScheduleIndependentTotals(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	totals := func(s Schedule) (int64, int64) {
		rec := machine.NewLedger(nil)
		if _, err := RunParallel(s, rec); err != nil {
			t.Fatal(err)
		}
		cs := rec.Snapshot(true)
		return cs.TouchReads, cs.TouchWrites
	}
	dr, dw := totals(DepthFirst(tasks, 3))
	br, bw := totals(BreadthFirst(tasks, 5))
	if dr != br || dw != bw {
		t.Fatalf("totals depend on schedule: (%d,%d) vs (%d,%d)", dr, dw, br, bw)
	}
}

func TestRunParallelNeedsRecorder(t *testing.T) {
	if _, err := RunParallel(Schedule{}, nil); err == nil {
		t.Fatal("want error for nil recorder")
	}
}

// perEvent splits every block RunParallel's workers deliver into one-event
// blocks, so the shared ledger is locked once per event. Run with -race:
// this is the regression test for concurrent recording into one shared
// recorder on real task traces, and the totals must still be exact.
type perEvent struct{ rec *machine.Ledger }

func (s perEvent) Record(events []machine.Event) {
	for i := range events {
		s.rec.Record(events[i : i+1])
	}
}

func TestRunParallelSharedRecorderPath(t *testing.T) {
	tasks, _ := MatMulTasks(32, 32, 32, 8, lineB)
	sched := DepthFirst(tasks, 8)

	rec := machine.NewLedger(nil)
	par, err := RunParallel(sched, perEvent{rec})
	if err != nil {
		t.Fatal(err)
	}
	cs := rec.Snapshot(true)
	if got := cs.TouchReads + cs.TouchWrites; got != par.AccessesRun {
		t.Fatalf("per-event touches %d != accesses %d", got, par.AccessesRun)
	}

	// The per-event path and the block path count identically.
	rec2 := machine.NewLedger(nil)
	if _, err := RunParallel(sched, rec2); err != nil {
		t.Fatal(err)
	}
	cs2 := rec2.Snapshot(true)
	if cs.TouchReads != cs2.TouchReads || cs.TouchWrites != cs2.TouchWrites {
		t.Fatalf("per-event path (%d,%d) != block path (%d,%d)",
			cs.TouchReads, cs.TouchWrites, cs2.TouchReads, cs2.TouchWrites)
	}
}
