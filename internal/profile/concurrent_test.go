package profile_test

import (
	"bytes"
	"fmt"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/dist"
	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
	"writeavoid/internal/smp"
)

// Counting recorders must ignore the span marks concurrent drivers emit:
// RunParallel wraps every task in EvBegin/EvEnd, and the totals of the one
// ledger every worker records into have to stay exact and
// interleaving-independent regardless. Run with -race.
func TestRunParallelSpansThroughLedger(t *testing.T) {
	const workers, tasksPer, opsPer = 4, 8, 64
	sched := smp.Schedule{Queues: make([][]smp.Task, workers)}
	var wantOps, wantWrites int64
	for w := 0; w < workers; w++ {
		for k := 0; k < tasksPer; k++ {
			task := smp.Task{Label: fmt.Sprintf("w%d.t%d", w, k)}
			for i := 0; i < opsPer; i++ {
				write := i%3 == 0
				task.Ops = append(task.Ops, access.Op{Addr: uint64(w*1000 + i), Write: write})
				wantOps++
				if write {
					wantWrites++
				}
			}
			sched.Queues[w] = append(sched.Queues[w], task)
		}
	}
	rec := machine.NewLedger(nil)
	res, err := smp.RunParallel(sched, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessesRun != wantOps {
		t.Fatalf("ran %d accesses, want %d", res.AccessesRun, wantOps)
	}
	merged := rec.Snapshot(true)
	if merged.TouchReads+merged.TouchWrites != wantOps {
		t.Errorf("merged touches %d+%d, want %d total",
			merged.TouchReads, merged.TouchWrites, wantOps)
	}
	if merged.TouchWrites != wantWrites {
		t.Errorf("merged writes %d, want %d", merged.TouchWrites, wantWrites)
	}
}

// A distributed run with per-rank span recorders, superstep spans, and a live
// AggregateStream flushing from rank 0 between barriers: every layer observes
// the same run concurrently and every exactness invariant still holds. Run
// with -race.
func TestDistSpansWithAggregateStream(t *testing.T) {
	const P, steps = 4, 3
	prof := profile.NewProfiler(nil)
	g := prof.Group("supersteps")
	m := dist.New(dist.Config{
		P: P,
		Levels: []machine.Level{
			{Name: "L1", Size: 1 << 10},
			{Name: "L2", Size: 1 << 16},
			{Name: "L3"},
		},
		Observe: g.Recorder,
	})
	var buf bytes.Buffer
	s := m.NewAggregateStream(&buf)
	m.Run(func(p *dist.Proc) {
		for step := 0; step < steps; step++ {
			p.H.Begin(fmt.Sprintf("superstep %d", step))
			p.H.Load(0, int64(10*(p.Rank+1)))
			p.H.Flops(100)
			p.H.Store(0, int64(10*(p.Rank+1)))
			p.H.End()
			p.Barrier()
			if p.Rank == 0 {
				if err := s.Flush(fmt.Sprintf("step %d", step)); err != nil {
					t.Error(err)
				}
			}
		}
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("aggregate stream wrote nothing")
	}

	for _, rank := range g.Ranks() {
		rec := g.Proc(rank)
		rec.Finish()
		checkSpanExactness(t, rec)
		roots := rec.Roots()
		if len(roots) != steps {
			t.Fatalf("rank %d: %d roots, want %d", rank, len(roots), steps)
		}
		for i, root := range roots {
			if want := fmt.Sprintf("superstep %d", i); root.Name != want {
				t.Errorf("rank %d root %d named %q, want %q", rank, i, root.Name, want)
			}
			if got := root.Delta.Interfaces[0].LoadWords; got != int64(10*(rank+1)) {
				t.Errorf("rank %d step %d loads %d, want %d", rank, i, got, 10*(rank+1))
			}
			if root.Delta.Flops != 100 {
				t.Errorf("rank %d step %d flops %d, want 100", rank, i, root.Delta.Flops)
			}
		}
		// Everything happened inside a superstep span.
		assertZeroSnap(t, fmt.Sprintf("rank %d unattributed", rank), rec.Unattributed())
	}
}
