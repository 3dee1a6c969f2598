// Package cache is a trace-driven, set-associative, write-back/write-allocate
// cache simulator with MESI-like line states, built to stand in for the
// Nehalem-EX L3 hardware counters of Section 6 of "Write-Avoiding
// Algorithms" (Carson et al., 2015).
//
// Counter mapping to the paper's measurements on the Xeon 7560:
//
//	FillsE     ~ LLC_S_FILLS.E   (lines filled from memory; all fills enter E)
//	VictimsM   ~ LLC_VICTIMS.M   (modified lines evicted => write-backs)
//	VictimsE   ~ LLC_VICTIMS.E   (clean lines evicted and forgotten)
//
// Replacement policies: true LRU, the 3-bit clock algorithm the paper cites
// as Nehalem's LRU approximation, FIFO, tree-PLRU, and seeded random; package
// opt adds the offline Belady policy. A specialized O(1) fully-associative
// LRU cache (FALRU) backs the Proposition 6.1/6.2 tests, which are stated for
// fully-associative LRU.
//
// Cache keeps every set's ways in flat arrays (tags, dirty bits, policy
// markers) beside one small struct per set, so New makes the same few
// allocations whatever the number of sets, and Access makes none. The
// policies are one switch over those arrays. A set's valid ways are always a
// prefix (only FlushDirty invalidates, and it empties every set), so a miss
// in a set that is not full fills the next way without a scan, and CLOCK3
// finds its victim in at most two sweeps of the set (DESIGN.md §4.1). The
// replaced per-set layout survives as the test reference
// (cache_ref_test.go).
package cache

import (
	"fmt"
	"math/rand/v2"
)

// State is a cache line coherence state. With a single simulated core the
// relevant MESIF states collapse to Invalid / Exclusive (clean) / Modified.
type State uint8

// Line states.
const (
	Invalid State = iota
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Stats are the simulator's counters, in cache lines (not bytes).
//
// Write-back accounting invariant (shared by Cache, FALRU, Hierarchy and
// SimulateOPT): every dirty line leaving the cache is exactly one write-back,
// counted once in VictimsM — whether it left mid-run as a replacement victim
// or at the end via FlushDirty (implicit for SimulateOPT). Flushed counts
// only the FlushDirty subset, so Flushed <= VictimsM always, mid-run
// replacement victims are VictimsM - Flushed, and Writebacks() == VictimsM is
// the total lines written to memory by the write-back path. The conservation
// law FillsE == (VictimsM - Flushed) + VictimsE + R also holds, where R is
// the number of lines resident just before FlushDirty ran (FlushDirty drops
// clean residents without counting them anywhere).
type Stats struct {
	Accesses int64
	Reads    int64
	Writes   int64
	Hits     int64
	Misses   int64
	FillsE   int64 // lines brought in from memory (paper: LLC_S_FILLS.E)
	VictimsM int64 // every dirty line leaving the cache: obligatory write-backs (LLC_VICTIMS.M)
	VictimsE int64 // clean lines evicted and forgotten (LLC_VICTIMS.E)
	Flushed  int64 // the FlushDirty subset of VictimsM (end-of-run write-backs)
	// WriteThroughs counts per-access memory writes in write-through mode.
	WriteThroughs int64
}

// MemoryWrites returns all lines/accesses written to memory: write-back
// victims plus write-through stores.
func (s Stats) MemoryWrites() int64 { return s.VictimsM + s.WriteThroughs }

// Writebacks returns the total lines written back to memory.
func (s Stats) Writebacks() int64 { return s.VictimsM }

// Sub returns the counter-wise difference s - prev: the stats of exactly the
// accesses between two observation points of one running simulation. Every
// field is a monotone counter, so differences of successive observations are
// non-negative and sum back to the final totals.
func (s Stats) Sub(prev Stats) Stats {
	s.Accesses -= prev.Accesses
	s.Reads -= prev.Reads
	s.Writes -= prev.Writes
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	s.FillsE -= prev.FillsE
	s.VictimsM -= prev.VictimsM
	s.VictimsE -= prev.VictimsE
	s.Flushed -= prev.Flushed
	s.WriteThroughs -= prev.WriteThroughs
	return s
}

// Simulator is the common interface of the set-associative cache, the
// fully-associative LRU cache, and the multi-level hierarchy front end.
type Simulator interface {
	Access(addr uint64, write bool)
	FlushDirty()
	Stats() Stats
	LineBytes() int
}

// Config describes one cache.
type Config struct {
	SizeBytes int        // total capacity
	LineBytes int        // line size (power of two)
	Assoc     int        // ways per set; 0 or >= number of lines means fully associative, negative is rejected
	Policy    PolicyKind // replacement policy
	Seed      uint64     // PRNG seed for PolicyRandom

	// WriteThrough switches from write-back/write-allocate to
	// write-through/no-write-allocate: every write goes straight to
	// memory (counted in Stats.WriteThroughs), lines never turn dirty,
	// and write misses do not fill. This models designs where writes
	// bypass the cache entirely (e.g. an NVM write path) — under which
	// no instruction reordering can avoid writes, making the write-back
	// policy itself a precondition of Section 6's results.
	WriteThrough bool
}

// Lines returns the number of lines the configuration holds.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// ways returns the effective associativity: Assoc, or every line when Assoc
// is 0 or exceeds the capacity.
func (c Config) ways() int {
	if c.Assoc == 0 || c.Assoc > c.Lines() {
		return c.Lines()
	}
	return c.Assoc
}

func (c Config) validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineBytes)
	}
	if c.SizeBytes < c.LineBytes {
		return fmt.Errorf("cache: size %d smaller than one line (%d)", c.SizeBytes, c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if c.Assoc < 0 {
		return fmt.Errorf("cache: associativity %d is negative (0 means fully associative)", c.Assoc)
	}
	lines, assoc := c.Lines(), c.ways()
	if lines%assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, assoc)
	}
	if sets := lines / assoc; sets&(sets-1) != 0 {
		return fmt.Errorf("cache: number of sets %d must be a power of two", sets)
	}
	if c.Policy < PolicyLRU || c.Policy > PolicyRandom {
		return fmt.Errorf("cache: unknown policy %v", c.Policy)
	}
	if c.Policy == PolicyPLRU && assoc&(assoc-1) != 0 {
		return fmt.Errorf("cache: PLRU requires power-of-two associativity, got %d", assoc)
	}
	if c.Policy == PolicyPLRU && assoc > plruMaxWays {
		return fmt.Errorf("cache: PLRU supports at most %d ways, got %d", plruMaxWays, assoc)
	}
	return nil
}

// Cache is a set-associative write-back, write-allocate cache. Its ways sit
// in flat arrays, way w of set s at index s*assoc+w, and a set's valid ways
// are always a prefix of its range: only FlushDirty invalidates, and it
// empties every set, so a miss in a set that is not full fills way used.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	tags      []uint64 // line number per way
	dirty     []bool   // per way: Modified, else Exclusive
	marks     []uint32 // per way: CLOCK3 marker or LRU/FIFO stamp
	sets      []set
	rng       *rand.Rand // PolicyRandom's victim draws
	stats     Stats
}

// set is one set's policy state.
type set struct {
	clock uint32 // CLOCK3 hand, or the LRU/FIFO stamp counter
	plru  uint32 // PLRU tree bits
	used  uint32 // ways filled: ways [used, assoc) are invalid
}

// New builds a cache from a config; it panics on invalid geometry because a
// bad config is a programming error in an experiment definition.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	lines, assoc := cfg.Lines(), cfg.ways()
	c := &Cache{
		cfg:     cfg,
		assoc:   assoc,
		setMask: uint64(lines/assoc - 1),
		tags:    make([]uint64, lines),
		dirty:   make([]bool, lines),
		marks:   make([]uint32, lines),
		sets:    make([]set, lines/assoc),
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	if cfg.Policy == PolicyRandom {
		c.rng = rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	}
	return c
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Assoc returns the effective associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access simulates one read or write of the byte at addr.
func (c *Cache) Access(addr uint64, write bool) { c.access(addr, write) }

// access simulates one access and reports whether it missed and, when it
// evicted a modified line, that line: Hierarchy passes both to the level
// below.
func (c *Cache) access(addr uint64, write bool) (missed bool, victim uint64, victimDirty bool) {
	wr := b2i(write)
	c.stats.Accesses++
	c.stats.Writes += wr
	c.stats.Reads += 1 - wr
	line := addr >> c.lineShift
	si := int(line & c.setMask)
	s := &c.sets[si]
	base := si * c.assoc
	for w, t := range c.tags[base : base+int(s.used)] {
		if t == line {
			c.stats.Hits++
			if write {
				if c.cfg.WriteThrough {
					// The memory copy is updated at once and the line
					// stays clean.
					c.stats.WriteThroughs++
				} else {
					c.dirty[base+w] = true
				}
			}
			c.touch(s, base, w)
			return false, 0, false
		}
	}
	c.stats.Misses++
	if write && c.cfg.WriteThrough {
		// No-write-allocate: the write goes straight to memory.
		c.stats.WriteThroughs++
		return true, 0, false
	}
	w := int(s.used)
	if w < c.assoc {
		s.used++
	} else {
		w = c.victim(s, base)
		victim, victimDirty = c.tags[base+w], c.dirty[base+w]
		d := b2i(victimDirty)
		c.stats.VictimsM += d
		c.stats.VictimsE += 1 - d
	}
	c.stats.FillsE++
	c.tags[base+w] = line
	c.dirty[base+w] = write
	c.insert(s, base, w)
	return true, victim, victimDirty
}

// FlushDirty writes back every modified line (counting into VictimsM and
// Flushed) and invalidates the whole cache. Experiments call it at the end of
// a run so that the final resident dirty output counts as written, matching
// the paper's whole-run counter readings.
func (c *Cache) FlushDirty() { c.flush(nil, 0) }

// flush counts every modified line as a write-back, in set-then-way order,
// and then empties every set. When h is not nil, each such line is also
// written into h's level below, when there is one, as it is counted.
func (c *Cache) flush(h *Hierarchy, below int) {
	for si := range c.sets {
		base := si * c.assoc
		for i := base; i < base+int(c.sets[si].used); i++ {
			if c.dirty[i] {
				c.stats.VictimsM++
				c.stats.Flushed++
				if h != nil && below < len(h.levels) {
					h.access(below, c.tags[i]<<c.lineShift, true)
				}
			}
		}
	}
	clear(c.sets)
}

// Contains reports whether the line holding addr is resident, and its state.
// Used by tests to probe simulator internals.
func (c *Cache) Contains(addr uint64) (State, bool) {
	line := addr >> c.lineShift
	si := int(line & c.setMask)
	base := si * c.assoc
	for i := base; i < base+int(c.sets[si].used); i++ {
		if c.tags[i] == line {
			if c.dirty[i] {
				return Modified, true
			}
			return Exclusive, true
		}
	}
	return Invalid, false
}

// b2i is 1 for true and 0 for false; the compiler makes it branch-free.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
