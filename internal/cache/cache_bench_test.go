package cache

import "testing"

// BenchmarkCacheSparse replays a cache-sparse-like stream through a 128 KiB,
// 16-way Cache of each policy by way of the Simulator interface, as
// watrace sim and the benchmark's cache-sparse op call it, flushing at the
// end, and reports ns per access.
func BenchmarkCacheSparse(b *testing.B) {
	ops := sparseOps(1<<20, 2048)
	for _, pol := range allPolicies {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sim Simulator = New(Config{SizeBytes: 128 << 10, LineBytes: 64, Assoc: 16, Policy: pol, Seed: 1})
				for _, op := range ops {
					sim.Access(op.Addr, op.Write)
				}
				sim.FlushDirty()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/access")
		})
	}
}
