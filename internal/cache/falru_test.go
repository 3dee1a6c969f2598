package cache

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/core"
)

// mixedStream returns n seeded ops drawn from four line populations of a
// cache of capLines lines: lines well inside the dense index, lines just
// below and just above its cap, and random 40-bit lines. Each population
// holds four times the capacity, so every kind of line both hits and
// misses, and the two sides of the cap evict each other.
func mixedStream(seed uint64, n, capLines, lineBytes int) []access.Op {
	rng := rand.New(rand.NewPCG(seed, 0xfa11))
	pop := 4 * capLines
	denseCap := uint64(capLines) * denseSpan
	sparse := make([]uint64, pop)
	for i := range sparse {
		sparse[i] = rng.Uint64N(1 << 40)
	}
	ops := make([]access.Op, n)
	for i := range ops {
		var line uint64
		switch rng.IntN(4) {
		case 0:
			line = rng.Uint64N(uint64(pop))
		case 1:
			line = denseCap - 1 - rng.Uint64N(uint64(pop))
		case 2:
			line = denseCap + rng.Uint64N(uint64(pop))
		default:
			line = sparse[rng.IntN(pop)]
		}
		off := rng.Uint64N(uint64(lineBytes))
		ops[i] = access.Op{Addr: line*uint64(lineBytes) + off, Write: rng.IntN(4) == 0}
	}
	return ops
}

// probeAgreement compares residency, state and recency rank of every line
// the ops touch between the reference and c.
func probeAgreement(t *testing.T, what string, ref *refFALRU, c *FALRU, ops []access.Op) {
	t.Helper()
	for _, op := range ops {
		rs, rok := ref.Contains(op.Addr)
		gs, gok := c.Contains(op.Addr)
		if rs != gs || rok != gok {
			t.Fatalf("%s: Contains(%#x) = %v,%v, reference %v,%v", what, op.Addr, gs, gok, rs, rok)
		}
		if rd, gd := ref.LRUDistance(op.Addr), c.LRUDistance(op.Addr); rd != gd {
			t.Fatalf("%s: LRUDistance(%#x) = %d, reference %d", what, op.Addr, gd, rd)
		}
	}
}

// TestFALRUMatchesReference replays mixed dense/sparse streams through the
// reference, through Access and through AccessBatch in random block sizes,
// flushing now and then: every Stats field, every line's residency and
// state, and every recency rank must agree after each block.
func TestFALRUMatchesReference(t *testing.T) {
	for _, tc := range []struct{ capLines, lineBytes int }{
		{1, 64}, {3, 64}, {64, 64}, {256, 8}, {200, 1},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			ops := mixedStream(seed, 20000, tc.capLines, tc.lineBytes)
			ref := newRefFALRU(tc.capLines*tc.lineBytes, tc.lineBytes)
			one := NewFALRU(tc.capLines*tc.lineBytes, tc.lineBytes)
			blk := NewFALRU(tc.capLines*tc.lineBytes, tc.lineBytes)
			rng := rand.New(rand.NewPCG(seed, 0xb10c))
			for lo := 0; lo < len(ops); {
				hi := min(lo+1+rng.IntN(300), len(ops))
				for _, op := range ops[lo:hi] {
					ref.Access(op.Addr, op.Write)
					one.Access(op.Addr, op.Write)
				}
				blk.AccessBatch(ops[lo:hi])
				if rng.IntN(20) == 0 {
					ref.FlushDirty()
					one.FlushDirty()
					blk.FlushDirty()
				}
				if r, a, b := ref.Stats(), one.Stats(), blk.Stats(); a != r || b != r {
					t.Fatalf("cap %d line %d seed %d after op %d: Access %+v, AccessBatch %+v, reference %+v",
						tc.capLines, tc.lineBytes, seed, hi, a, b, r)
				}
				probeAgreement(t, "Access", ref, one, ops[lo:hi])
				probeAgreement(t, "AccessBatch", ref, blk, ops[lo:hi])
				lo = hi
			}
		}
	}
}

// TestFALRUAllocatesNothingWhenFull checks that once the cache is full and
// its dense index has grown over the stream's reach, accesses allocate
// nothing, one by one or in blocks, on the dense and on the sparse path.
func TestFALRUAllocatesNothingWhenFull(t *testing.T) {
	const capLines, lineBytes = 512, 64
	rng := rand.New(rand.NewPCG(7, 7))
	dense := make([]access.Op, 1<<14)
	sparse := make([]access.Op, 1<<14)
	pool := make([]uint64, 4*capLines)
	for i := range pool {
		pool[i] = denseSpan*capLines + rng.Uint64N(1<<40)
	}
	for i := range dense {
		write := rng.IntN(4) == 0
		dense[i] = access.Op{Addr: rng.Uint64N(4*capLines) * lineBytes, Write: write}
		sparse[i] = access.Op{Addr: pool[rng.IntN(len(pool))] * lineBytes, Write: write}
	}
	for name, ops := range map[string][]access.Op{"dense": dense, "sparse": sparse} {
		c := NewFALRU(capLines*lineBytes, lineBytes)
		c.AccessBatch(ops)
		if c.Stats().VictimsM+c.Stats().VictimsE == 0 {
			t.Fatalf("%s: warm-up never filled the cache", name)
		}
		// AllocsPerRun rounds down, so each run is a whole pass: a
		// single allocation anywhere in it fails the test.
		perPass := testing.AllocsPerRun(4, func() {
			for _, op := range ops {
				c.Access(op.Addr, op.Write)
			}
		})
		perBlock := testing.AllocsPerRun(4, func() { c.AccessBatch(ops) })
		if perPass != 0 || perBlock != 0 {
			t.Errorf("%s: %v allocs per %d Access calls, %v per AccessBatch of them, want 0",
				name, perPass, len(ops), perBlock)
		}
	}
}

// TestFALRUDenseIndexGrowsGeometrically walks a fresh cache over every
// line under the dense cap in ascending order: the dense index must grow by
// doubling, a handful of allocations, not once per new line. Each of the
// five runs builds its own cache and AllocsPerRun floors the per-run mean,
// so a single allocation from elsewhere in the process cannot fail the
// test, while one more allocation per run still does.
func TestFALRUDenseIndexGrowsGeometrically(t *testing.T) {
	const capLines, lineBytes = 512, 64
	var c *FALRU
	allocs := testing.AllocsPerRun(5, func() {
		c = NewFALRU(capLines*lineBytes, lineBytes)
		for line := uint64(0); line < capLines*denseSpan; line++ {
			c.Access(line*lineBytes, false)
		}
	})
	// 4 for the cache itself, then 1024, 2048, ..., 65536 slots.
	if allocs > 4+7 {
		t.Fatalf("%v allocations to index %d lines, want <= 11", allocs, capLines*denseSpan)
	}
	if len(c.dense) != capLines*denseSpan {
		t.Fatalf("dense index has %d slots, want %d", len(c.dense), capLines*denseSpan)
	}
}

// FuzzFALRUReference drives the reference and the pooled cache, by Access
// and by AccessBatch, with arbitrary streams over an 8-line cache. Each byte
// is one op: bits 0-4 pick a line within one of four populations chosen by
// bits 5-6 (low dense lines, the last lines under the dense cap, the first
// lines over it, 40-bit lines), bit 7 makes it a write; 0xff flushes.
func FuzzFALRUReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1})
	f.Add([]byte{0x20, 0x41, 0x62, 0x83, 0xff, 0x20, 0x41})
	f.Add([]byte{0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x60, 0xe1, 0x62})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const capLines, lineBytes = 8, 64
		const denseCap = capLines * denseSpan
		ref := newRefFALRU(capLines*lineBytes, lineBytes)
		one := NewFALRU(capLines*lineBytes, lineBytes)
		blk := NewFALRU(capLines*lineBytes, lineBytes)
		var ops, block []access.Op
		for _, b := range raw {
			if b == 0xff {
				blk.AccessBatch(block)
				block = block[:0]
				ref.FlushDirty()
				one.FlushDirty()
				blk.FlushDirty()
				continue
			}
			idx := uint64(b & 0x1f)
			var line uint64
			switch b >> 5 & 3 {
			case 0:
				line = idx
			case 1:
				line = denseCap - 1 - idx
			case 2:
				line = denseCap + idx
			default:
				line = (idx*0x9e3779b97f4a7c15)>>24 | 1<<39
			}
			op := access.Op{Addr: line * lineBytes, Write: b&0x80 != 0}
			ops = append(ops, op)
			block = append(block, op)
			ref.Access(op.Addr, op.Write)
			one.Access(op.Addr, op.Write)
		}
		blk.AccessBatch(block)
		if r, a, b := ref.Stats(), one.Stats(), blk.Stats(); a != r || b != r {
			t.Fatalf("Access %+v, AccessBatch %+v, reference %+v", a, b, r)
		}
		probeAgreement(t, "Access", ref, one, ops)
		probeAgreement(t, "AccessBatch", ref, blk, ops)
	})
}

// TestProp61Anchor is the Proposition 6.1 exactness anchor: the write-
// avoiding 64x64x64 multiplication with 16x16 blocks through a 32 KiB
// fully-associative LRU cache writes back exactly its 512 output lines.
func TestProp61Anchor(t *testing.T) {
	c := NewFALRU(32<<10, 64)
	core.NewMatMulTrace(64, 64, 64, 64, core.TraceLevel{Block: 16, ContractionInner: true}).Run(c)
	c.FlushDirty()
	if got := c.Stats().VictimsM; got != 512 {
		t.Fatalf("victims.M = %d, want 512 (64*64*8/64 output lines)", got)
	}
}

// NewFALRU and SimulateOPT reject a size that is not a whole number of
// lines, as New does, instead of flooring it to one.
func TestNewFALRURejectsPartialLine(t *testing.T) {
	for _, c := range []struct {
		size, line int
		want       string
	}{
		{100, 64, "cache: size 100 not a multiple of line size 64"},
		{64*3 + 8, 64, "cache: size 200 not a multiple of line size 64"},
		{32, 64, "cache: size smaller than one line"},
		{96, 48, "cache: line size must be a positive power of two"},
	} {
		for name, build := range map[string]func(){
			"NewFALRU":    func() { NewFALRU(c.size, c.line) },
			"SimulateOPT": func() { SimulateOPT(nil, c.size, c.line) },
		} {
			func() {
				defer func() {
					if e := recover(); fmt.Sprint(e) != c.want {
						t.Errorf("%s(%d, %d) panicked with %v, want %q", name, c.size, c.line, e, c.want)
					}
				}()
				build()
			}()
		}
	}
	if got := NewFALRU(64*3, 64).Capacity(); got != 3 {
		t.Fatalf("NewFALRU(192, 64) holds %d lines, want 3", got)
	}
}
