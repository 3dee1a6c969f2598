package writeavoid_test

// One benchmark per table and figure of the paper's evaluation, as required
// by DESIGN.md's per-experiment index. Each benchmark runs the quick-mode
// experiment driver (the same code cmd/wabench uses) and reports the
// headline counter of that experiment as a custom metric, so
// `go test -bench=. -benchmem` both times the substrates and records the
// reproduced numbers.

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/cdag"
	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
	"writeavoid/internal/extsort"
	"writeavoid/internal/fft"
	"writeavoid/internal/krylov"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/nbody"
	"writeavoid/internal/plu"
	"writeavoid/internal/strassen"
)

// BenchmarkFig2 regenerates the six Figure 2 panels (quick sweep) and
// reports the cache-oblivious vs write-avoiding victims.M at the endpoint.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels := experiments.NewSession().Fig2(true)
		co := panels[0].Points[len(panels[0].Points)-1]
		wa := panels[2].Points[len(panels[2].Points)-1]
		b.ReportMetric(float64(co.VictimsM), "co-victimsM")
		b.ReportMetric(float64(wa.VictimsM), "wa-victimsM")
	}
}

// BenchmarkFig5 regenerates the eight Figure 5 panels (quick sweep).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels := experiments.NewSession().Fig5(true)
		left := panels[len(panels)-2].Points
		right := panels[len(panels)-1].Points
		b.ReportMetric(float64(left[len(left)-1].VictimsM), "multilevel-victimsM")
		b.ReportMetric(float64(right[len(right)-1].VictimsM), "twolevel-victimsM")
	}
}

// BenchmarkTable1 runs the three Model-1/2.1 parallel matmuls.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession().Table1(true)
		b.ReportMetric(float64(rows[0].NetWords), "cannon-networds")
		b.ReportMetric(float64(rows[2].NetWords), "25dmml3-networds")
	}
}

// BenchmarkTable2 runs the two Model-2.2 algorithms (Theorem 4's pair).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession().Table2(true)
		b.ReportMetric(float64(rows[0].NVMWrites), "ool2-nvmwrites")
		b.ReportMetric(float64(rows[1].NVMWrites), "summa-nvmwrites")
	}
}

// BenchmarkSec4Kernels runs the Section 4 WA kernel suite.
func BenchmarkSec4Kernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession().Sec4(true)
		b.ReportMetric(float64(rows[0].WAStores), "matmul-wa-stores")
	}
}

// BenchmarkSec7LU runs LL- vs RL-LUNP.
func BenchmarkSec7LU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession().LU(true)
		b.ReportMetric(float64(rows[0].NVMWrites), "ll-nvmwrites")
		b.ReportMetric(float64(rows[1].NVMWrites), "rl-nvmwrites")
	}
}

// BenchmarkSec8Krylov runs the CA-CG write-reduction sweep.
func BenchmarkSec8Krylov(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession().Krylov(true)
		b.ReportMetric(rows[len(rows)-1].WriteRatio, "write-reduction-s8")
	}
}

// --- raw-substrate microbenchmarks -------------------------------------------

// BenchmarkWAMatMulCompute times the write-avoiding blocked multiplication
// (compute + counting) at n=128.
func BenchmarkWAMatMulCompute(b *testing.B) {
	n := 128
	a := matrix.Random(n, n, 1)
	bm := matrix.Random(n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.TwoLevelPlan(3*16*16, 16, core.OrderWA)
		c := matrix.New(n, n)
		if err := core.MatMul(p, c, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimLRU times the set-associative simulator on a strided
// scan (the Figure 2 inner loop's cost driver).
func BenchmarkCacheSimLRU(b *testing.B) {
	c := cache.New(cache.Config{SizeBytes: 128 * 1024, LineBytes: 64, Assoc: 16, Policy: cache.PolicyLRU})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)%(1<<22), i&7 == 0)
	}
}

// BenchmarkCacheSimFALRU times the O(1) fully-associative LRU cache.
func BenchmarkCacheSimFALRU(b *testing.B) {
	c := cache.NewFALRU(128*1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)%(1<<22), i&7 == 0)
	}
}

// BenchmarkTraceEmitter times the element-granularity trace generation.
func BenchmarkTraceEmitter(b *testing.B) {
	tr := core.NewMatMulTrace(64, 64, 64, 64,
		core.TraceLevel{Block: 16, ContractionInner: true})
	var sink access.Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Run(&sink)
	}
}

// BenchmarkFFTExternal times the four-step external FFT with counting.
func BenchmarkFFTExternal(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := machine.TwoLevel(64)
		fft.External(h, 64, x)
	}
}

// BenchmarkStrassen times the counting Strassen multiplication at n=64.
func BenchmarkStrassen(b *testing.B) {
	a := matrix.Random(64, 64, 1)
	bm := matrix.Random(64, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := machine.TwoLevel(192)
		if _, err := strassen.Multiply(h, 192, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBody2WA times the blocked (N,2)-body force computation.
func BenchmarkNBody2WA(b *testing.B) {
	s := nbody.RandomSystem(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := machine.TwoLevel(3 * 16)
		if _, err := nbody.Forces2WA(h, []int{16}, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialLU times the left-looking write-avoiding LU.
func BenchmarkSequentialLU(b *testing.B) {
	n := 64
	a := matrix.Random(n, n, 1)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n)+2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.TwoLevelPlan(3*8*8, 8, core.OrderWA)
		if err := core.LU(p, a.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedQR times the left-looking write-avoiding MGS QR.
func BenchmarkBlockedQR(b *testing.B) {
	m, n, bs := 64, 48, 8
	a := matrix.Random(m, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := machine.TwoLevel(int64(m*bs + 2*bs*bs))
		r := matrix.New(n, n)
		if err := core.QR(h, bs, core.OrderWA, a.Clone(), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCACGStreaming times the streaming CA-CG outer iteration (1-D).
func BenchmarkCACGStreaming(b *testing.B) {
	ring := krylov.NewRing(4096, 1)
	rhs := make([]float64, 4096)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	x0 := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr krylov.Traffic
		if _, err := krylov.CACG(ring, rhs, x0, 1,
			krylov.CACGConfig{S: 4, Mode: krylov.CACGStreaming, Block: 256}, &tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphPowers times the general-CSR matrix powers basis pass.
func BenchmarkGraphPowers(b *testing.B) {
	ring := krylov.NewRing(4096, 2)
	g, err := krylov.NewGraphOperator(ring.CSR())
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 4096)
	for i := range rhs {
		rhs[i] = float64(i%11) - 5
	}
	x0 := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr krylov.Traffic
		if _, err := krylov.CACG(g, rhs, x0, 1,
			krylov.CACGConfig{S: 4, Mode: krylov.CACGStreaming, Block: 256}, &tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExternalSort times the counted out-of-core mergesort (the
// Section 9 exhibit).
func BenchmarkExternalSort(b *testing.B) {
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = float64((i * 2654435761) % 99991)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := machine.TwoLevel(256)
		if _, err := extsort.Sort(h, 256, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceIO times trace serialization round-trips.
func BenchmarkTraceIO(b *testing.B) {
	tr := core.NewMatMulTrace(32, 32, 32, 64, core.TraceLevel{Block: 8, ContractionInner: true})
	var rec access.Recorder
	tr.Run(&rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := access.WriteTrace(&buf, rec.Ops); err != nil {
			b.Fatal(err)
		}
		if _, err := access.ReadTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSimulation times the CDAG schedule simulator on a
// butterfly graph.
func BenchmarkScheduleSimulation(b *testing.B) {
	g := fft.BuildCDAG(64)
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := cdag.RandomTopoOrder(g, rng)
		if _, err := cdag.Schedule(g, order, 16, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCholesky times the distributed left-looking Cholesky.
func BenchmarkParallelCholesky(b *testing.B) {
	a := matrix.RandomSPD(32, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plu.CholeskyLL(plu.Config{Q: 2, B: 4, M1: 48, M2: 1 << 16}, a.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}
