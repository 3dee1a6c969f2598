package smp

import (
	"fmt"
	"sync"

	"writeavoid/internal/machine"
)

// RunParallel executes every worker's task queue on its own goroutine — real
// concurrency, not the deterministic round-robin interleaving of Run — and
// records each access as an EvTouch event into rec, so the totals are exact
// and race-free no matter how the goroutines interleave. There is no shared
// cache here (a cache simulation needs one global access order, which is
// what Run provides); what RunParallel checks is the counting layer: merged
// touch totals are schedule- and interleaving-independent, equal to what the
// serial replay counts. Result.Stats is zero.
//
// The recorder must be safe for concurrent use, as a machine.Ledger is:
// every worker records through it.
func RunParallel(sched Schedule, rec machine.Recorder) (Result, error) {
	return RunParallelPlaced(sched, rec, SocketPlan{})
}

// SocketPlan places a parallel run's workers on NUMA sockets: worker w lives
// on Topo.SocketOf(w, Placement), and an access is classified remote when the
// touched address's home socket (per Home) differs from the toucher's. The
// zero value is the flat plan RunParallel uses: one socket, Home nil, nothing
// remote.
type SocketPlan struct {
	Topo      machine.Topology
	Placement machine.Placement
	// Home maps an address to the socket whose memory owns it (e.g. the
	// socket of the worker that produced the block). Nil means no
	// classification: every access is local even on a multi-socket Topo.
	Home func(addr uint64) int
}

// RunParallelPlaced is RunParallel with workers placed on sockets. The event
// stream and touch totals are identical to the unplaced run — same events,
// same order per worker — except that accesses crossing sockets carry
// Event.Remote and are tallied in Result.RemoteAccesses and the recorder's
// remote touch counters. With a flat plan the two are indistinguishable,
// event for event.
func RunParallelPlaced(sched Schedule, rec machine.Recorder, plan SocketPlan) (Result, error) {
	if rec == nil {
		return Result{}, fmt.Errorf("smp: RunParallel needs a recorder")
	}
	topo := plan.Topo.For(len(sched.Queues))
	classify := plan.Home != nil && !topo.Flat()
	type tally struct {
		tasks    int
		accesses int64
		remote   int64
	}
	tallies := make([]tally, len(sched.Queues))
	var wg sync.WaitGroup
	for w := range sched.Queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			socket := topo.SocketOf(w, plan.Placement)
			// Each worker buffers its events in a private batch and delivers
			// blocks at capacity and at the end of its queue — the recorder
			// pays its per-call synchronization (a lock) once per block
			// instead of once per access. Order within the worker is
			// preserved exactly; concurrently-recording recorders never
			// guaranteed any cross-worker order, batched or not.
			eb := machine.NewEventBatch(machine.DefaultBatchEvents)
			emit := func(e machine.Event) {
				if eb.Append(e) {
					rec.Record(eb.Events())
					eb.Reset()
				}
			}
			for _, t := range sched.Queues[w] {
				// Each task is one span on the recorder; counters ignore
				// the marks, span recorders attribute the task's touches
				// to its label.
				emit(machine.Event{Kind: machine.EvBegin, Label: t.Label})
				for _, op := range t.Ops {
					remote := classify && plan.Home(op.Addr) != socket
					emit(machine.Event{
						Kind:   machine.EvTouch,
						Addr:   op.Addr,
						Write:  op.Write,
						Remote: remote,
					})
					tallies[w].accesses++
					if remote {
						tallies[w].remote++
					}
				}
				emit(machine.Event{Kind: machine.EvEnd})
				tallies[w].tasks++
			}
			if eb.Len() > 0 {
				rec.Record(eb.Events())
				eb.Reset()
			}
		}(w)
	}
	wg.Wait()
	var res Result
	for _, t := range tallies {
		res.TasksRun += t.tasks
		res.AccessesRun += t.accesses
		res.RemoteAccesses += t.remote
	}
	return res, nil
}
