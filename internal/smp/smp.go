// Package smp is a simulated shared-memory machine for the paper's final
// open problem (Section 9): how thread schedules interact with
// write-avoidance. W workers execute block-task traces that interleave,
// access by access, into one shared last-level cache; the scheduler decides
// which tasks each worker runs and in what order.
//
// The experiment mirrors Blelloch et al.'s observation the paper cites:
// depth-first-style schedules, which keep each worker's output block in
// residence until it is finished, preserve the write-avoiding property of
// the underlying blocked algorithm, while breadth-first-style schedules
// (all contraction step 0 tasks, then all step 1 tasks, ...) re-dirty every
// output block per step and write back Theta(steps) times more.
package smp

import (
	"fmt"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
)

// Task is one schedulable unit: a finite memory-access trace (typically a
// single block operation of a blocked algorithm).
type Task struct {
	Label string
	Ops   []access.Op
}

// Schedule is a per-worker queue assignment.
type Schedule struct {
	Queues [][]Task
}

// Workers returns the worker count.
func (s Schedule) Workers() int { return len(s.Queues) }

// Result reports a simulated run.
type Result struct {
	Stats       cache.Stats
	TasksRun    int
	AccessesRun int64
}

// Run interleaves the workers' task streams into the shared cache, quantum
// accesses per worker per turn (round-robin), modeling W cores executing
// simultaneously. Returns the shared-cache counters after a final dirty
// flush.
func Run(llc *cache.FALRU, sched Schedule, quantum int) (Result, error) {
	if quantum < 1 {
		return Result{}, fmt.Errorf("smp: quantum must be >= 1")
	}
	type cursor struct {
		queue []Task
		task  int
		op    int
	}
	cur := make([]cursor, len(sched.Queues))
	for i := range cur {
		cur[i] = cursor{queue: sched.Queues[i]}
	}
	var res Result
	active := len(cur)
	for active > 0 {
		active = 0
		for w := range cur {
			c := &cur[w]
			budget := quantum
			for budget > 0 && c.task < len(c.queue) {
				t := &c.queue[c.task]
				if c.op >= len(t.Ops) {
					c.task++
					c.op = 0
					res.TasksRun++
					continue
				}
				op := t.Ops[c.op]
				llc.Access(op.Addr, op.Write)
				res.AccessesRun++
				c.op++
				budget--
			}
			if c.task < len(c.queue) {
				active++
			}
		}
	}
	llc.FlushDirty()
	res.Stats = llc.Stats()
	return res, nil
}

// MatMulTasks builds the task set of a blocked multiplication C += A*B with
// block edge b: one task per (i,j,k) block triple, each task the
// element-granularity trace of that block multiply (register-accumulated C).
func MatMulTasks(m, n, l, b, lineBytes int) (tasks [][][]Task, layoutC access.Region) {
	lay := access.NewLayout(uint64(lineBytes))
	ra := lay.NewRegion(m, n)
	rb := lay.NewRegion(n, l)
	rc := lay.NewRegion(m, l)
	mb, lb, nb := (m+b-1)/b, (l+b-1)/b, (n+b-1)/b
	tasks = make([][][]Task, mb)
	for i := 0; i < mb; i++ {
		tasks[i] = make([][]Task, lb)
		for j := 0; j < lb; j++ {
			tasks[i][j] = make([]Task, nb)
			for k := 0; k < nb; k++ {
				var rec access.Recorder
				ih := min(b, m-i*b)
				jh := min(b, l-j*b)
				kh := min(b, n-k*b)
				for r := 0; r < ih; r++ {
					for c := 0; c < jh; c++ {
						rec.Access(rc.Addr(i*b+r, j*b+c), false)
						for x := 0; x < kh; x++ {
							rec.Access(ra.Addr(i*b+r, k*b+x), false)
							rec.Access(rb.Addr(k*b+x, j*b+c), false)
						}
						rec.Access(rc.Addr(i*b+r, j*b+c), true)
					}
				}
				tasks[i][j][k] = Task{
					Label: fmt.Sprintf("C(%d,%d)+=A(%d,%d)B(%d,%d)", i, j, i, k, k, j),
					Ops:   rec.Ops,
				}
			}
		}
	}
	return tasks, rc
}

// DepthFirst assigns whole C-block columns of tasks to workers: each worker
// finishes all k steps of one (i,j) block before moving on — the
// write-friendly schedule.
func DepthFirst(tasks [][][]Task, workers int) Schedule {
	s := Schedule{Queues: make([][]Task, workers)}
	idx := 0
	for i := range tasks {
		for j := range tasks[i] {
			w := idx % workers
			s.Queues[w] = append(s.Queues[w], tasks[i][j]...)
			idx++
		}
	}
	return s
}

// BreadthFirst orders tasks k-major: every worker sweeps all its (i,j)
// blocks at contraction step k before any step k+1 — the write-amplifying
// schedule (each C block goes dirty-cold once per step).
func BreadthFirst(tasks [][][]Task, workers int) Schedule {
	s := Schedule{Queues: make([][]Task, workers)}
	if len(tasks) == 0 || len(tasks[0]) == 0 {
		return s
	}
	nb := len(tasks[0][0])
	idx := 0
	for k := 0; k < nb; k++ {
		for i := range tasks {
			for j := range tasks[i] {
				w := idx % workers
				s.Queues[w] = append(s.Queues[w], tasks[i][j][k])
				idx++
			}
		}
	}
	return s
}
