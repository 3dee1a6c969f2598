package cache

import (
	"math/rand/v2"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/core"
)

// benchReplay times FALRU on a recorded stream, in the 256-op blocks a
// hierarchy flush hands over or one Access at a time, and reports ns and
// allocations per access.
func benchReplay(b *testing.B, ops []access.Op, sizeBytes int, blocks bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewFALRU(sizeBytes, 64)
		if blocks {
			for lo := 0; lo < len(ops); lo += 256 {
				c.AccessBatch(ops[lo:min(lo+256, len(ops))])
			}
		} else {
			for _, op := range ops {
				c.Access(op.Addr, op.Write)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/access")
}

// fig2Ops records the Figure 2 two-level write-avoiding trace (L3 block 64)
// at middle dimension 32: 4.3 million accesses over compact lines.
func fig2Ops() []access.Op {
	var rec access.Recorder
	core.NewMatMulTrace(256, 32, 256, 64,
		core.TraceLevel{Block: 64, ContractionInner: true},
		core.TraceLevel{Block: 16, ContractionInner: false},
		core.TraceLevel{Block: 8, ContractionInner: false}).Run(&rec)
	return rec.Ops
}

// sparseOps is a cache-sparse-like stream: random 40-bit lines, a quarter of
// the accesses to a hot set of half the capacity.
func sparseOps(n, capLines int) []access.Op {
	rng := rand.New(rand.NewPCG(1, 2))
	hot := make([]uint64, capLines/2)
	cold := make([]uint64, 16*capLines)
	for _, set := range [][]uint64{hot, cold} {
		for i := range set {
			set[i] = rng.Uint64N(1 << 40)
		}
	}
	ops := make([]access.Op, n)
	for i := range ops {
		set := cold
		if rng.IntN(4) == 0 {
			set = hot
		}
		ops[i] = access.Op{Addr: set[rng.IntN(len(set))] * 64, Write: rng.IntN(4) == 0}
	}
	return ops
}

func BenchmarkFALRUFig2Blocks(b *testing.B) { benchReplay(b, fig2Ops(), 128<<10, true) }
func BenchmarkFALRUFig2Access(b *testing.B) { benchReplay(b, fig2Ops(), 128<<10, false) }
func BenchmarkFALRUSparseAccess(b *testing.B) {
	benchReplay(b, sparseOps(1<<20, 2048), 128<<10, false)
}
