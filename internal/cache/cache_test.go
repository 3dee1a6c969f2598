package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"writeavoid/internal/access"
)

func mkCache(sizeLines, assoc int, pol PolicyKind) *Cache {
	return New(Config{SizeBytes: sizeLines * 64, LineBytes: 64, Assoc: assoc, Policy: pol, Seed: 1})
}

func TestHitAfterFill(t *testing.T) {
	c := mkCache(8, 2, PolicyLRU)
	c.Access(0, false)
	c.Access(8, false) // same line (64B lines)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.FillsE != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteMarksModified(t *testing.T) {
	c := mkCache(8, 2, PolicyLRU)
	c.Access(0, true)
	if s, ok := c.Contains(0); !ok || s != Modified {
		t.Fatalf("state %v ok %v", s, ok)
	}
	c.Access(64, false)
	if s, ok := c.Contains(64); !ok || s != Exclusive {
		t.Fatalf("clean read should be Exclusive, got %v", s)
	}
}

func TestEvictionStatesCounted(t *testing.T) {
	// Direct-mapped 2-line cache: lines 0 and 2 map to set 0, lines 1 and 3 to set 1.
	c := mkCache(2, 1, PolicyLRU)
	c.Access(0, true)     // fill line 0, dirty
	c.Access(2*64, false) // conflicts: evicts dirty line 0
	st := c.Stats()
	if st.VictimsM != 1 || st.VictimsE != 0 {
		t.Fatalf("want one M victim: %+v", st)
	}
	c.Access(0, false) // evicts clean line 2
	if st := c.Stats(); st.VictimsE != 1 {
		t.Fatalf("want one E victim: %+v", st)
	}
}

func TestFlushDirtyCountsResidentWrites(t *testing.T) {
	c := mkCache(16, 4, PolicyLRU)
	for i := 0; i < 5; i++ {
		c.Access(uint64(i*64), true)
	}
	c.Access(1000*64, false)
	c.FlushDirty()
	st := c.Stats()
	if st.VictimsM != 5 || st.Flushed != 5 {
		t.Fatalf("flush should write back 5 dirty lines: %+v", st)
	}
	if _, ok := c.Contains(0); ok {
		t.Fatal("flush must invalidate")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := mkCache(4, 4, PolicyLRU) // one set, 4 ways
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false) // touch line 0: line 1 is now LRU
	c.Access(4*64, false)
	if _, ok := c.Contains(1 * 64); ok {
		t.Fatal("line 1 should have been evicted")
	}
	if _, ok := c.Contains(0); !ok {
		t.Fatal("line 0 should survive")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := mkCache(4, 4, PolicyFIFO)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false) // re-touch does not refresh FIFO age
	c.Access(4*64, false)
	if _, ok := c.Contains(0); ok {
		t.Fatal("FIFO should evict the oldest fill (line 0) despite the touch")
	}
}

func TestClock3ApproximatesLRU(t *testing.T) {
	c := mkCache(4, 4, PolicyClock3)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	// Touch line 0 many times: its marker saturates at 7.
	for i := 0; i < 10; i++ {
		c.Access(0, false)
	}
	// A burst of conflicting fills must never evict the hot line before
	// the cold ones.
	c.Access(4*64, false)
	c.Access(5*64, false)
	c.Access(6*64, false)
	if _, ok := c.Contains(0); !ok {
		t.Fatal("CLOCK3 evicted the hottest line while cold lines remained")
	}
}

func TestPLRUBasic(t *testing.T) {
	c := mkCache(4, 4, PolicyPLRU)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false)
	c.Access(4*64, false) // someone other than 0 must go
	if _, ok := c.Contains(0); !ok {
		t.Fatal("PLRU evicted the most recently used line")
	}
	st := c.Stats()
	if st.Misses != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// Write-through/no-allocate: every write is a memory write, lines never
// dirty, write misses do not fill.
func TestWriteThroughMode(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyLRU, WriteThrough: true})
	c.Access(0, true) // write miss: straight to memory, no fill
	if _, ok := c.Contains(0); ok {
		t.Fatal("no-write-allocate must not fill on a write miss")
	}
	c.Access(0, false) // read miss fills clean
	c.Access(0, true)  // write hit: through to memory, stays clean
	if st, ok := c.Contains(0); !ok || st != Exclusive {
		t.Fatalf("write-through hit must keep the line clean, got %v ok=%v", st, ok)
	}
	st := c.Stats()
	if st.WriteThroughs != 2 {
		t.Fatalf("write-throughs %d want 2", st.WriteThroughs)
	}
	c.FlushDirty()
	if got := c.Stats().VictimsM; got != 0 {
		t.Fatalf("write-through cache can have no dirty victims, got %d", got)
	}
	if c.Stats().MemoryWrites() != 2 {
		t.Fatal("MemoryWrites should count the write-throughs")
	}
}

// Under write-through, write-avoidance by reordering is impossible: the WA
// matmul trace writes memory once per C-element visit regardless of order —
// the write-back policy is itself a precondition of the Section 6 results.
func TestWriteThroughDefeatsWriteAvoidance(t *testing.T) {
	wb := New(Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 16, Policy: PolicyLRU})
	wt := New(Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 16, Policy: PolicyLRU, WriteThrough: true})
	// A simple dirty-hot-line workload: repeated writes to one block.
	for i := 0; i < 1000; i++ {
		wb.Access(uint64(i%64)*8, true)
		wt.Access(uint64(i%64)*8, true)
	}
	wb.FlushDirty()
	wt.FlushDirty()
	if wbw := wb.Stats().MemoryWrites(); wbw > 8 {
		t.Fatalf("write-back should coalesce to <= 8 lines, got %d", wbw)
	}
	if wtw := wt.Stats().MemoryWrites(); wtw != 1000 {
		t.Fatalf("write-through must write memory per store: %d", wtw)
	}
}

// Classic identity: tree-PLRU with 2 ways IS true LRU.
func TestPLRUEqualsLRUTwoWay(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 123))
		lru := mkCache(16, 2, PolicyLRU)
		plru := mkCache(16, 2, PolicyPLRU)
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.IntN(64)) * 64
			w := rng.IntN(3) == 0
			lru.Access(addr, w)
			plru.Access(addr, w)
		}
		a, b := lru.Stats(), plru.Stats()
		return a.Hits == b.Hits && a.VictimsM == b.VictimsM && a.VictimsE == b.VictimsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPolicyDeterministicUnderSeed(t *testing.T) {
	run := func() Stats {
		c := New(Config{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyRandom, Seed: 42})
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < 5000; i++ {
			c.Access(uint64(rng.IntN(64))*64, rng.IntN(2) == 0)
		}
		return c.Stats()
	}
	if run() != run() {
		t.Fatal("seeded random policy must be deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, LineBytes: 0},
		{SizeBytes: 100, LineBytes: 48},
		{SizeBytes: 32, LineBytes: 64},
		{SizeBytes: 65, LineBytes: 64},
		{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 5}, // 12 lines % 5 != 0
		{SizeBytes: 64 * 12, LineBytes: 64, Assoc: 2}, // 6 sets not power of two
		// PLRU's tree needs power-of-two ways: rejected at construction,
		// not at the set's first eviction.
		{SizeBytes: 768, LineBytes: 64, Assoc: 6, Policy: PolicyPLRU},
		{SizeBytes: 64 * 12, LineBytes: 64, Policy: PolicyPLRU}, // fully associative, 12 ways
		// Its node bits are a uint32: 32 ways at most.
		{SizeBytes: 64 * 128, LineBytes: 64, Assoc: 64, Policy: PolicyPLRU},
		{SizeBytes: 64 * 64, LineBytes: 64, Policy: PolicyPLRU}, // fully associative, 64 ways
		{SizeBytes: 64 * 8, LineBytes: 64, Assoc: 2, Policy: PolicyKind(9)},
		{SizeBytes: 64 * 8, LineBytes: 64, Assoc: -1}, // 0, not a negative, means fully associative
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d should panic: %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
	// The widest PLRU tree a set holds.
	New(Config{SizeBytes: 64 * 32, LineBytes: 64, Policy: PolicyPLRU})
	if got := New(Config{SizeBytes: 64 * 8, LineBytes: 64}).Assoc(); got != 8 {
		t.Fatalf("Assoc 0 gives %d ways, want all 8 lines", got)
	}
}

// LRU inclusion property (Mattson): under LRU, the contents of a cache of
// size M are a subset of the contents of a cache of size 2M on the same
// trace, so misses(2M) <= misses(M).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		small := NewFALRU(16*64, 64)
		big := NewFALRU(32*64, 64)
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.IntN(64)) * 64
			w := rng.IntN(3) == 0
			small.Access(addr, w)
			big.Access(addr, w)
			// Inclusion: everything in small must be in big.
			if _, inSmall := small.Contains(addr); inSmall {
				if _, inBig := big.Contains(addr); !inBig {
					return false
				}
			}
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Sleator–Tarjan style sanity: LRU with capacity 2M incurs no more misses
// than OPT with capacity M on the same trace (a weaker, checkable form of the
// competitive bound the paper cites).
func TestLRUVsOPTCompetitive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		var rec access.Recorder
		for i := 0; i < 3000; i++ {
			rec.Access(uint64(rng.IntN(48))*64, rng.IntN(4) == 0)
		}
		lru := NewFALRU(16*64, 64)
		for _, op := range rec.Ops {
			lru.Access(op.Addr, op.Write)
		}
		opt := SimulateOPT(rec.Ops, 8*64, 64)
		// LRU(2M) misses <= 2 * OPT(M) misses  (Sleator–Tarjan factor
		// M/(M-M'+1) = 16/9 < 2 here).
		return lru.Stats().Misses <= 2*opt.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		var rec access.Recorder
		for i := 0; i < 3000; i++ {
			rec.Access(uint64(rng.IntN(40))*64, rng.IntN(4) == 0)
		}
		lru := NewFALRU(12*64, 64)
		for _, op := range rec.Ops {
			lru.Access(op.Addr, op.Write)
		}
		opt := SimulateOPT(rec.Ops, 12*64, 64)
		return opt.Misses <= lru.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTBasicCounts(t *testing.T) {
	var rec access.Recorder
	// 3 distinct lines cycled through a 2-line cache: OPT keeps the one
	// with the nearest reuse.
	seq := []uint64{0, 64, 128, 0, 64, 128}
	for _, a := range seq {
		rec.Access(a, false)
	}
	st := SimulateOPT(rec.Ops, 2*64, 64)
	if st.Accesses != 6 {
		t.Fatalf("accesses %d", st.Accesses)
	}
	// OPT: fills 0,64; at 128 evict whichever is used furthest (64? no:
	// next uses are 0->3, 64->4, so evict 64), hit 0, miss 64 (evict 128
	// since it has no future use... its next use is 5), etc.
	if st.Misses > 5 || st.Misses < 4 {
		t.Fatalf("OPT misses %d out of plausible range", st.Misses)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits+misses != accesses: %+v", st)
	}
}

func TestOPTDirtyFlushCounted(t *testing.T) {
	var rec access.Recorder
	rec.Access(0, true)
	st := SimulateOPT(rec.Ops, 64, 64)
	if st.VictimsM != 1 || st.Flushed != 1 {
		t.Fatalf("final dirty line must flush: %+v", st)
	}
}

func TestFALRUMatchesSetAssociativeFullWays(t *testing.T) {
	// A set-associative cache with one set and LRU must agree exactly with
	// FALRU on hits/misses/victims.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		sa := mkCache(8, 8, PolicyLRU)
		fa := NewFALRU(8*64, 64)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.IntN(32)) * 64
			w := rng.IntN(3) == 0
			sa.Access(addr, w)
			fa.Access(addr, w)
		}
		s1, s2 := sa.Stats(), fa.Stats()
		return s1.Hits == s2.Hits && s1.Misses == s2.Misses &&
			s1.VictimsM == s2.VictimsM && s1.VictimsE == s2.VictimsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFALRUDistance(t *testing.T) {
	c := NewFALRU(4*64, 64)
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	if d := c.LRUDistance(3 * 64); d != 0 {
		t.Fatalf("most recent should have distance 0, got %d", d)
	}
	if d := c.LRUDistance(0); d != 3 {
		t.Fatalf("oldest should have distance 3, got %d", d)
	}
	if d := c.LRUDistance(99 * 64); d != -1 {
		t.Fatalf("absent line should report -1, got %d", d)
	}
}

func TestStatsInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		c := mkCache(16, 4, PolicyLRU)
		for i := 0; i < 3000; i++ {
			c.Access(uint64(rng.IntN(100))*8, rng.IntN(2) == 0)
		}
		st := c.Stats()
		if st.Hits+st.Misses != st.Accesses {
			return false
		}
		if st.FillsE != st.Misses {
			return false // write-allocate: every miss fills
		}
		// Victims can't exceed fills.
		return st.VictimsM+st.VictimsE <= st.FillsE
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyFiltersTraffic(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4, Policy: PolicyLRU},
		Config{SizeBytes: 32 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyLRU},
	)
	// Hammer 2 lines: everything after the first touches hits in L1 and
	// never reaches L2.
	for i := 0; i < 100; i++ {
		h.Access(0, false)
		h.Access(64, false)
	}
	l2 := h.Level(1).Stats()
	if l2.Accesses != 2 {
		t.Fatalf("L2 should see only the two cold misses, saw %d", l2.Accesses)
	}
}

func TestHierarchyWritebackCascade(t *testing.T) {
	h := NewHierarchy(
		Config{SizeBytes: 2 * 64, LineBytes: 64, Assoc: 2, Policy: PolicyLRU},
		Config{SizeBytes: 64 * 64, LineBytes: 64, Assoc: 8, Policy: PolicyLRU},
	)
	h.Access(0, true) // dirty in L1
	// Evict it from L1 with two conflicting lines.
	h.Access(1*64, false)
	h.Access(2*64, false)
	// The dirty victim must have been written into L2 (state M there).
	if s, ok := h.Level(1).Contains(0); !ok || s != Modified {
		t.Fatalf("dirty victim should be Modified in L2, got %v ok=%v", s, ok)
	}
	h.FlushDirty()
	if h.Stats().VictimsM != 1 {
		t.Fatalf("exactly one memory write-back expected, got %+v", h.Stats())
	}
}

func TestHierarchyMismatchedLinesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHierarchy(
		Config{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 4},
		Config{SizeBytes: 4 * 128, LineBytes: 128, Assoc: 4},
	)
}

func TestPolicyKindString(t *testing.T) {
	for _, k := range allPolicies {
		if k.String() == "" || k.String()[0] == 'P' && k != PolicyPLRU {
			t.Fatalf("bad name for %d: %q", int(k), k.String())
		}
	}
	if Modified.String() != "M" || Exclusive.String() != "E" || Invalid.String() != "I" {
		t.Fatal("state strings")
	}
}

func TestAccessCounterSink(t *testing.T) {
	var c access.Counter
	c.Access(0, true)
	c.Access(0, false)
	c.Access(0, false)
	if c.Writes != 1 || c.Reads != 2 {
		t.Fatalf("%+v", c)
	}
}

func TestLayoutDisjointRegions(t *testing.T) {
	l := access.NewLayout(64)
	a := l.NewRegion(10, 10)
	b := l.NewRegion(5, 5)
	endA := a.Addr(9, 9) + 8
	if b.Base < endA {
		t.Fatalf("regions overlap: a ends %d, b starts %d", endA, b.Base)
	}
	if b.Base%64 != 0 {
		t.Fatal("region not line aligned")
	}
	if a.Addr(2, 3) != a.Base+uint64(2*10+3)*8 {
		t.Fatal("row-major addressing broken")
	}
}

var allPolicies = []PolicyKind{PolicyLRU, PolicyClock3, PolicyFIFO, PolicyPLRU, PolicyRandom}

// refGeometries are the shapes the differential tests run: direct-mapped to
// fully associative, power-of-two associativity and not, and 8- and 1-byte
// lines (with 1-byte lines the top of the address space is line 2^64-1).
var refGeometries = []struct{ lines, assoc, lineBytes int }{
	{64, 1, 64}, {64, 2, 64}, {64, 4, 64}, {64, 16, 64}, {64, 64, 64}, {64, 0, 64},
	{48, 3, 64}, {40, 5, 64}, {12, 0, 64}, {256, 8, 8}, {64, 16, 1},
}

// refOps returns n seeded ops, most over span lines from address 0, an
// eighth over span lines at the top of the address space and an eighth at
// random 40-bit lines; a quarter are writes.
func refOps(seed uint64, n, span, lineBytes int) []access.Op {
	rng := rand.New(rand.NewPCG(seed, uint64(span)))
	bytes := uint64(span * lineBytes)
	ops := make([]access.Op, n)
	for i := range ops {
		addr := rng.Uint64N(bytes)
		switch rng.IntN(8) {
		case 0:
			addr = ^uint64(0) - addr
		case 1:
			addr = rng.Uint64N(1<<40) * uint64(lineBytes)
		}
		ops[i] = access.Op{Addr: addr, Write: rng.IntN(4) == 0}
	}
	return ops
}

// refAgree probes both caches for addr and fails unless they agree.
func refAgree(t *testing.T, what string, ref *refCache, c *Cache, addr uint64) {
	t.Helper()
	rs, rok := ref.Contains(addr)
	s, ok := c.Contains(addr)
	if s != rs || ok != rok {
		t.Fatalf("%s: Contains(%#x) = %v %v, reference %v %v", what, addr, s, ok, rs, rok)
	}
}

// TestCacheMatchesReference drives the flat cache and the per-set reference
// it replaced (cache_ref_test.go) with the same streams, for every policy,
// write-back and write-through, every geometry of refGeometries, and line
// spans below and above the capacity, flushing and resetting the stats now
// and then: every Stats field must agree after every flush and at the end,
// and Contains must agree on probes of lines both resident and evicted. A
// three-level Hierarchy per policy must agree with the reference hierarchy
// on every level's Stats.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range refGeometries {
		for _, pol := range allPolicies {
			for _, wt := range []bool{false, true} {
				cfg := Config{SizeBytes: g.lines * g.lineBytes, LineBytes: g.lineBytes,
					Assoc: g.assoc, Policy: pol, Seed: 3, WriteThrough: wt}
				if cfg.validate() != nil {
					continue // PLRU without power-of-two ways
				}
				for _, span := range []int{g.lines / 2, 4 * g.lines} {
					what := fmt.Sprintf("%+v span %d", cfg, span)
					ops := refOps(uint64(g.lines+g.assoc), 5000, span, g.lineBytes)
					ref, c := newRefCache(cfg), New(cfg)
					rng := rand.New(rand.NewPCG(uint64(span), 9))
					flushes := 0
					for i, op := range ops {
						ref.Access(op.Addr, op.Write)
						c.Access(op.Addr, op.Write)
						refAgree(t, what, ref, c, ops[rng.IntN(i+1)].Addr)
						switch rng.IntN(400) {
						case 0:
							ref.FlushDirty()
							c.FlushDirty()
							flushes++
							if a, b := c.Stats(), ref.Stats(); a != b {
								t.Fatalf("%s: after flush at op %d: %+v, reference %+v", what, i, a, b)
							}
						case 1:
							ref.ResetStats()
							c.ResetStats()
						}
					}
					ref.FlushDirty()
					c.FlushDirty()
					if a, b := c.Stats(), ref.Stats(); a != b || flushes == 0 {
						t.Fatalf("%s: after %d flushes: %+v, reference %+v", what, flushes, a, b)
					}
				}
			}
		}
	}
	for _, pol := range allPolicies {
		for _, l1WriteThrough := range []bool{false, true} {
			cfgs := []Config{
				{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 2, Policy: pol, Seed: 5, WriteThrough: l1WriteThrough},
				{SizeBytes: 32 * 64, LineBytes: 64, Assoc: 4, Policy: pol, Seed: 6},
				{SizeBytes: 128 * 64, LineBytes: 64, Assoc: 16, Policy: pol, Seed: 7},
			}
			for _, span := range []int{64, 512} {
				what := fmt.Sprintf("hierarchy %v L1 write-through %v span %d", pol, l1WriteThrough, span)
				ref, h := newRefHierarchy(cfgs...), NewHierarchy(cfgs...)
				rng := rand.New(rand.NewPCG(uint64(span), 10))
				check := func(when string) {
					for lvl, rc := range ref.levels {
						if a, b := h.Level(lvl).Stats(), rc.Stats(); a != b {
							t.Fatalf("%s: level %d %s: %+v, reference %+v", what, lvl, when, a, b)
						}
					}
				}
				for i, op := range refOps(uint64(span), 20000, span, 64) {
					ref.Access(op.Addr, op.Write)
					h.Access(op.Addr, op.Write)
					if rng.IntN(1000) == 0 {
						ref.FlushDirty()
						h.FlushDirty()
						check(fmt.Sprintf("after flush at op %d", i))
					}
				}
				ref.FlushDirty()
				h.FlushDirty()
				check("at the end")
			}
		}
	}
}

// FuzzCacheMatchesReference drives the flat cache and the reference, each
// alone and as the last level below a 4-line L1, with arbitrary streams.
// The first byte picks the policy (bits 0-2, modulo 5), write-through (bit
// 3) and the geometry (bits 4-7, modulo len(refGeometries)). Each later
// byte is one op: bits 0-4 pick a line within one of four populations
// chosen by bits 5-6 (low lines, lines one set apart, 40-bit lines, the top
// of the address space), bit 7 makes it a write; 0xff flushes and 0xfe
// resets the stats.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x01, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{0x31, 0x20, 0x21, 0x22, 0x23, 0x24, 0xa0, 0x20, 0xff, 0x21})
	f.Add([]byte{0x93, 0x60, 0x61, 0x40, 0xe1, 0xfe, 0x62, 0x60, 0xff})
	f.Add([]byte{0xa9, 0x60, 0x7f, 0xe0, 0x61, 0x60, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		g := refGeometries[int(raw[0]>>4)%len(refGeometries)]
		cfg := Config{SizeBytes: g.lines * g.lineBytes, LineBytes: g.lineBytes, Assoc: g.assoc,
			Policy: allPolicies[int(raw[0]&7)%len(allPolicies)], Seed: 1, WriteThrough: raw[0]&8 != 0}
		if cfg.validate() != nil {
			return // PLRU without power-of-two ways
		}
		l1 := Config{SizeBytes: 4 * g.lineBytes, LineBytes: g.lineBytes, Assoc: 2, Policy: cfg.Policy, Seed: 2}
		ref, c := newRefCache(cfg), New(cfg)
		rh, h := newRefHierarchy(l1, cfg), NewHierarchy(l1, cfg)
		sets := uint64(c.Sets())
		check := func(when string) {
			if a, b := c.Stats(), ref.Stats(); a != b {
				t.Fatalf("%s: %+v, reference %+v", when, a, b)
			}
			for lvl, rc := range rh.levels {
				if a, b := h.Level(lvl).Stats(), rc.Stats(); a != b {
					t.Fatalf("%s: hierarchy level %d %+v, reference %+v", when, lvl, a, b)
				}
			}
		}
		var prev uint64
		for i, b := range raw[1:] {
			switch b {
			case 0xff:
				ref.FlushDirty()
				c.FlushDirty()
				rh.FlushDirty()
				h.FlushDirty()
				check(fmt.Sprintf("flush at byte %d", i+1))
				continue
			case 0xfe:
				ref.ResetStats()
				c.ResetStats()
				for lvl, rc := range rh.levels {
					rc.ResetStats()
					h.Level(lvl).ResetStats()
				}
				continue
			}
			idx := uint64(b & 0x1f)
			addr := idx * uint64(g.lineBytes)
			switch b >> 5 & 3 {
			case 1:
				addr *= sets
			case 2:
				addr = ((idx*0x9e3779b97f4a7c15)>>24 | 1<<39) * uint64(g.lineBytes)
			case 3:
				addr = ^uint64(0) - addr
			}
			write := b&0x80 != 0
			ref.Access(addr, write)
			c.Access(addr, write)
			rh.Access(addr, write)
			h.Access(addr, write)
			refAgree(t, "after "+fmt.Sprint(i+1)+" bytes", ref, c, prev)
			prev = addr
		}
		check("end")
		ref.FlushDirty()
		c.FlushDirty()
		rh.FlushDirty()
		h.FlushDirty()
		check("final flush")
	})
}

// TestCacheAllocs pins the flat layout's allocations: New makes as many at
// 32,768 sets as at 128 (the per-set slices it replaced made three per set),
// and Access on a full cache makes none. It runs under -race too.
func TestCacheAllocs(t *testing.T) {
	for _, pol := range allPolicies {
		cfg := func(sets int) Config {
			return Config{SizeBytes: sets * 16 * 64, LineBytes: 64, Assoc: 16, Policy: pol, Seed: 1}
		}
		// AllocsPerRun floors the mean over its runs, so a stray runtime
		// allocation in one of ten runs does not count.
		small := testing.AllocsPerRun(10, func() { New(cfg(128)) })
		big := testing.AllocsPerRun(10, func() { New(cfg(32768)) })
		if big != small || small > 10 {
			t.Errorf("%v: New makes %v allocations at 128 sets and %v at 32768, want the same few", pol, small, big)
		}
		c := New(cfg(128))
		ops := sparseOps(1<<14, 2048)
		for _, op := range ops {
			c.Access(op.Addr, op.Write)
		}
		// AllocsPerRun rounds down, so each run is a whole pass: a single
		// allocation anywhere in it fails the test.
		if n := testing.AllocsPerRun(4, func() {
			for _, op := range ops {
				c.Access(op.Addr, op.Write)
			}
		}); n != 0 {
			t.Errorf("%v: %v allocations per %d accesses, want 0", pol, n, len(ops))
		}
	}
}
