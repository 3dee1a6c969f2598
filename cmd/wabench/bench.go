package main

// The -benchjson mode: a self-timing harness over the repository's benchmark
// workloads (the same bodies bench_test.go runs under `go test -bench`),
// producing a machine-readable JSON artifact without needing the test
// binary. Each workload reports wall time per op plus the machine events it
// drove per op, counted by a monitor on the op's Session, which raw-substrate
// kernels reach through Session.Observe and section drivers through the
// experiments hooks — so the artifact pairs "how fast" with "how much
// simulated memory activity".

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"writeavoid/internal/cache"
	"writeavoid/internal/cdag"
	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
	"writeavoid/internal/extsort"
	"writeavoid/internal/fft"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/monitor"
)

// BenchResult is one workload's line in the -benchjson document.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"nsPerOp"`
	EventsPerOp float64 `json:"eventsPerOp"`
}

// BenchReport is the top-level -benchjson document.
type BenchReport struct {
	Quick   bool          `json:"quick"`
	Results []BenchResult `json:"results"`
}

// benchWorkload is one timed unit: run executes a single op, attaching any
// hierarchy it builds through sess.Observe (section drivers reach the same
// sinks through the experiments hooks). Every workload gets a fresh Session,
// so no sink state leaks between workloads.
type benchWorkload struct {
	name string
	run  func(sess *experiments.Session) error
}

// benchWorkloads mirrors ten benchmarks of bench_test.go — the five section
// drivers and five raw-substrate kernels — with the same shapes and sizes,
// so the JSON artifact tracks the same work `go test -bench` times.
func benchWorkloads() []benchWorkload {
	rng := rand.New(rand.NewPCG(1, 2))
	return []benchWorkload{
		{"Fig2", func(sess *experiments.Session) error {
			sess.Fig2(true)
			return nil
		}},
		{"Table1", func(sess *experiments.Session) error {
			sess.Table1(true)
			return nil
		}},
		{"Sec4Kernels", func(sess *experiments.Session) error {
			sess.Sec4(true)
			return nil
		}},
		{"Sec7LU", func(sess *experiments.Session) error {
			sess.LU(true)
			return nil
		}},
		{"Sec8Krylov", func(sess *experiments.Session) error {
			sess.Krylov(true)
			return nil
		}},
		{"WAMatMulCompute", func(sess *experiments.Session) error {
			n := 128
			a := matrix.Random(n, n, 1)
			b := matrix.Random(n, n, 2)
			p := core.TwoLevelPlan(3*16*16, 16, core.OrderWA)
			sess.Observe(p.H)
			return core.MatMul(p, matrix.New(n, n), a, b)
		}},
		{"CacheSimFALRU", func(*experiments.Session) error {
			c := cache.NewFALRU(128*1024, 64)
			for i := 0; i < 1<<16; i++ {
				c.Access(uint64(i*64)%(1<<22), i&7 == 0)
			}
			return nil
		}},
		{"FFTExternal", func(sess *experiments.Session) error {
			x := make([]complex128, 4096)
			for i := range x {
				x[i] = complex(float64(i%7), float64(i%3))
			}
			h := sess.Observe(machine.TwoLevel(64))
			fft.External(h, 64, x)
			return nil
		}},
		{"ExternalSort", func(sess *experiments.Session) error {
			data := make([]float64, 1<<14)
			for i := range data {
				data[i] = float64((i * 2654435761) % 99991)
			}
			h := sess.Observe(machine.TwoLevel(256))
			_, err := extsort.Sort(h, 256, data)
			return err
		}},
		{"ScheduleSimulation", func(*experiments.Session) error {
			g := fft.BuildCDAG(64)
			order := cdag.RandomTopoOrder(g, rng)
			_, err := cdag.Schedule(g, order, 16, rng)
			return err
		}},
	}
}

// benchSession is one workload's wiring: a fresh Session whose monitor
// counts the events, with the shared flight ring (nil: none) reading the
// monitor's ledger beside it.
func benchSession(m *monitor.Monitor, fr *flight.Recorder) *experiments.Session {
	sess := experiments.NewSession()
	sess.SetMonitor(m)
	if fr != nil {
		sess.SetFlight(fr)
	}
	return sess
}

// runBenchJSON times every workload (one warmup op, then at least three ops
// and at least minDur of wall time) and writes the JSON report to path. With
// flightN > 0 a flight recorder of that capacity rides every workload on the
// session's ledger, so comparing a flight run against a no-flight baseline
// prices the recorder's steady-state overhead; events/op is counted by the
// monitor alone and stays identical either way.
func runBenchJSON(path string, quick bool, flightN int) int {
	minDur := time.Second
	if quick {
		minDur = 200 * time.Millisecond
	}
	const minIters, maxIters = 3, 1000

	var fr *flight.Recorder
	if flightN > 0 {
		fr = flight.New(flightN, machine.GenericLevels(3))
	}

	rep := BenchReport{Quick: quick}
	for _, w := range benchWorkloads() {
		// The monitor doubles as the event counter: TotalEvents is exactly
		// the counter-bearing event count of every hierarchy the session
		// observed.
		warm := monitor.New(machine.GenericLevels(3), nil)
		if err := w.run(benchSession(warm, fr)); err != nil {
			fmt.Fprintf(os.Stderr, "wabench: bench %s: %v\n", w.name, err)
			return 1
		}

		m := monitor.New(machine.GenericLevels(3), nil)
		sess := benchSession(m, fr)
		iters := 0
		start := time.Now()
		var elapsed time.Duration
		for iters < minIters || (elapsed < minDur && iters < maxIters) {
			if err := w.run(sess); err != nil {
				fmt.Fprintf(os.Stderr, "wabench: bench %s: %v\n", w.name, err)
				return 1
			}
			iters++
			elapsed = time.Since(start)
		}

		res := BenchResult{
			Name:        w.name,
			Iters:       iters,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
			EventsPerOp: float64(m.TotalEvents()) / float64(iters),
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "wabench: bench %-20s %14.0f ns/op %14.1f events/op  (%d iters)\n",
			res.Name, res.NsPerOp, res.EventsPerOp, res.Iters)
	}

	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wabench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "wabench:", err)
		return 1
	}
	return 0
}
