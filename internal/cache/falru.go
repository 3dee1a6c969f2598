package cache

import (
	"fmt"

	"writeavoid/internal/access"
)

// FALRU is a fully-associative LRU write-back cache with O(1) accesses. The
// Proposition 6.1/6.2 experiments, which are stated for a fully-associative
// LRU fast memory, run on this type; the set-associative Cache would need
// associativity equal to the full line count and pay a linear victim scan.
//
// It allocates nothing per access. The recency list is a pool of capacity
// nodes linked by int32 index, preallocated at construction: a miss in a
// full cache reuses the evicted LRU node. Lines are indexed two ways, chosen
// by the line number alone. Lines below denseSpan*capacity, which covers the
// compact line-aligned address spaces access.Layout hands out, index a dense
// slot array directly; it grows on demand up to that cap. Every other line
// goes to an open-addressing table (linear probing, backward-shift deletion)
// allocated on the first such line at eight times the capacity, so it never
// fills beyond one eighth, keeps its probe runs short, and never rehashes.
type FALRU struct {
	lineBytes int
	lineShift uint
	capacity  int // lines
	// The node pool, split by field so the hot relinking touches only the
	// 8-byte links. Node 0 is the sentinel of the circular recency list:
	// links[0].next is the MRU node, links[0].prev the LRU node.
	links []falruLink
	lines []uint64 // the line each node holds
	dirty []bool
	used  int32 // pool nodes holding a line
	// dense[line] is the node of line, 0 if absent, for line < len(dense).
	dense    []int32
	denseCap uint64 // dense never grows past this many lines
	// table holds the nodes of lines >= denseCap, 0 marking an empty slot.
	table      []int32
	tableShift uint // 64 - log2 of the table's length
	stats      Stats
}

type falruLink struct{ prev, next int32 }

// denseSpan is the dense index's reach in multiples of the capacity: 128
// covers every Figure 2 point of the full sweep (about 68 times the
// simulated L3) at 512 bytes of index per cached line at most.
const denseSpan = 128

// outcome is what one access did to the cache.
type outcome uint8

const (
	hit outcome = iota
	fill
	fillEvictClean
	fillEvictDirty
)

// NewFALRU builds a fully-associative LRU cache of sizeBytes capacity.
func NewFALRU(sizeBytes, lineBytes int) *FALRU {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	if sizeBytes < lineBytes {
		panic("cache: size smaller than one line")
	}
	if sizeBytes%lineBytes != 0 {
		panic(fmt.Sprintf("cache: size %d not a multiple of line size %d", sizeBytes, lineBytes))
	}
	capacity := sizeBytes / lineBytes
	if capacity > 1<<30 {
		panic("cache: FALRU capacity exceeds 2^30 lines")
	}
	c := &FALRU{
		lineBytes:  lineBytes,
		capacity:   capacity,
		links:      make([]falruLink, capacity+1),
		lines:      make([]uint64, capacity+1),
		dirty:      make([]bool, capacity+1),
		denseCap:   uint64(capacity) * denseSpan,
		tableShift: 64,
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	for n := 1; n < 8*capacity; n <<= 1 {
		c.tableShift--
	}
	return c
}

// LineBytes returns the line size.
func (c *FALRU) LineBytes() int { return c.lineBytes }

// Capacity returns the capacity in lines.
func (c *FALRU) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *FALRU) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps contents.
func (c *FALRU) ResetStats() { c.stats = Stats{} }

// Access simulates one read or write of the byte at addr.
func (c *FALRU) Access(addr uint64, write bool) {
	c.AccessBatch([]access.Op{{Addr: addr, Write: write}})
}

// AccessBatch simulates ops in order, with the same effect as calling Access
// on each; the counters stay in locals across the block. A hit on a line of
// the dense index, nearly every access of a blocked kernel's trace, is
// served without leaving the loop.
func (c *FALRU) AccessBatch(ops []access.Op) {
	var writes, hits, victimsM, victimsE int64
	for _, op := range ops {
		line := op.Addr >> c.lineShift
		if op.Write {
			writes++
		}
		if line < uint64(len(c.dense)) {
			if n := c.dense[line]; n != 0 {
				hits++
				if op.Write {
					c.dirty[n] = true
				}
				c.moveToFront(n)
				continue
			}
		}
		switch c.touch(line, op.Write) {
		case hit:
			hits++
		case fillEvictClean:
			victimsE++
		case fillEvictDirty:
			victimsM++
		}
	}
	n := int64(len(ops))
	c.stats.Accesses += n
	c.stats.Reads += n - writes
	c.stats.Writes += writes
	c.stats.Hits += hits
	c.stats.Misses += n - hits
	c.stats.FillsE += n - hits
	c.stats.VictimsM += victimsM
	c.stats.VictimsE += victimsE
}

// touch makes line the most recently used, filling it on a miss and evicting
// the LRU line when the cache is full.
func (c *FALRU) touch(line uint64, write bool) outcome {
	if n := c.lookup(line); n != 0 {
		if write {
			c.dirty[n] = true
		}
		c.moveToFront(n)
		return hit
	}
	out := fill
	var n int32
	if int(c.used) < c.capacity {
		c.used++
		n = c.used
	} else {
		n = c.links[0].prev
		if c.dirty[n] {
			out = fillEvictDirty
		} else {
			out = fillEvictClean
		}
		c.unindex(c.lines[n])
		c.unlink(n)
	}
	c.lines[n] = line
	c.dirty[n] = write
	c.index(line, n)
	c.pushFront(n)
	return out
}

// FlushDirty writes back all dirty lines and empties the cache.
func (c *FALRU) FlushDirty() {
	for n := c.links[0].next; n != 0; n = c.links[n].next {
		if c.dirty[n] {
			c.stats.VictimsM++
			c.stats.Flushed++
		}
		if c.lines[n] < c.denseCap {
			c.dense[c.lines[n]] = 0
		}
	}
	clear(c.table)
	c.links[0] = falruLink{}
	c.used = 0
}

// Contains reports residency and state of the line holding addr.
func (c *FALRU) Contains(addr uint64) (State, bool) {
	n := c.lookup(addr >> c.lineShift)
	switch {
	case n == 0:
		return Invalid, false
	case c.dirty[n]:
		return Modified, true
	}
	return Exclusive, true
}

// LRUDistance returns the recency rank of the line holding addr (0 = most
// recently used), or -1 if absent. Tests of Proposition 6.1 use this to check
// the "never ranked below 5b^2" invariant directly.
func (c *FALRU) LRUDistance(addr uint64) int {
	want := c.lookup(addr >> c.lineShift)
	if want == 0 {
		return -1
	}
	rank := 0
	for n := c.links[0].next; n != want; n = c.links[n].next {
		rank++
	}
	return rank
}

// lookup returns the node holding line, or 0.
func (c *FALRU) lookup(line uint64) int32 {
	if line < uint64(len(c.dense)) {
		return c.dense[line]
	}
	if line < c.denseCap || c.table == nil {
		return 0
	}
	mask := uint64(len(c.table) - 1)
	for i := c.home(line); ; i = (i + 1) & mask {
		n := c.table[i]
		if n == 0 || c.lines[n] == line {
			return n
		}
	}
}

// index records node n as the holder of line, which must be absent.
func (c *FALRU) index(line uint64, n int32) {
	if line < c.denseCap {
		if line >= uint64(len(c.dense)) {
			c.growDense(line)
		}
		c.dense[line] = n
		return
	}
	if c.table == nil {
		c.table = make([]int32, 1<<(64-c.tableShift))
	}
	mask := uint64(len(c.table) - 1)
	i := c.home(line)
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = n
}

// unindex forgets the holder of line, which must be present. In the table,
// the entries after the freed slot shift back over it until one sits at its
// home slot, so probe runs never break and no tombstones accumulate.
func (c *FALRU) unindex(line uint64) {
	if line < c.denseCap {
		c.dense[line] = 0
		return
	}
	mask := uint64(len(c.table) - 1)
	i := c.home(line)
	for c.lines[c.table[i]] != line {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		k := c.home(c.lines[c.table[j]])
		if (i < j && (k <= i || k > j)) || (i > j && k <= i && k > j) {
			c.table[i] = c.table[j]
			i = j
		}
	}
	c.table[i] = 0
}

// home is line's preferred table slot (Fibonacci hashing).
func (c *FALRU) home(line uint64) uint64 {
	return (line * 0x9e3779b97f4a7c15) >> c.tableShift
}

// growDense extends the dense index to cover line, at least doubling it.
func (c *FALRU) growDense(line uint64) {
	size := max(2*uint64(len(c.dense)), 1024)
	for size <= line {
		size *= 2
	}
	grown := make([]int32, min(size, c.denseCap))
	copy(grown, c.dense)
	c.dense = grown
}

func (c *FALRU) moveToFront(n int32) {
	if c.links[0].next == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *FALRU) unlink(n int32) {
	l := c.links[n]
	c.links[l.prev].next = l.next
	c.links[l.next].prev = l.prev
}

func (c *FALRU) pushFront(n int32) {
	h := c.links[0].next
	c.links[n] = falruLink{prev: 0, next: h}
	c.links[h].prev = n
	c.links[0].next = n
}
