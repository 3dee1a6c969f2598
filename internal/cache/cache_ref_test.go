package cache

import (
	"fmt"
	"math/rand/v2"
)

// refCache is the original set-associative cache: one set struct per set
// with its own tag, state and metadata slices, a first-invalid-way scan on
// every fill, and the replacement policy behind an interface with one type
// per policy. It stays as the slow, obviously-correct reference the flat
// Cache is pinned against.
type refCache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int
	sets      []refSet
	policy    refPolicy
	stats     Stats
}

type refSet struct {
	tag   []uint64
	state []State
	meta  []uint32 // per-way policy metadata (stamps, markers, ...)
	aux   uint32   // per-set policy metadata (clock hand, PLRU bits, counter)
	aux2  uint32
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	lines := cfg.Lines()
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	nsets := lines / assoc
	c := &refCache{
		cfg:     cfg,
		assoc:   assoc,
		setMask: uint64(nsets - 1),
		policy:  newRefPolicy(cfg.Policy, cfg.Seed),
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.sets = make([]refSet, nsets)
	for i := range c.sets {
		c.sets[i] = refSet{
			tag:   make([]uint64, assoc),
			state: make([]State, assoc),
			meta:  make([]uint32, assoc),
		}
	}
	return c
}

func (c *refCache) Stats() Stats { return c.stats }
func (c *refCache) ResetStats()  { c.stats = Stats{} }

func (c *refCache) Access(addr uint64, write bool) { c.accessTracked(addr, write) }

func (c *refCache) FlushDirty() {
	for i := range c.sets {
		s := &c.sets[i]
		for w := 0; w < c.assoc; w++ {
			if s.state[w] == Modified {
				c.stats.VictimsM++
				c.stats.Flushed++
			}
			s.state[w] = Invalid
			s.meta[w] = 0
		}
		s.aux = 0
		s.aux2 = 0
	}
}

func (c *refCache) Contains(addr uint64) (State, bool) {
	lineAddr := addr >> c.lineShift
	s := &c.sets[lineAddr&c.setMask]
	for w := 0; w < c.assoc; w++ {
		if s.state[w] != Invalid && s.tag[w] == lineAddr {
			return s.state[w], true
		}
	}
	return Invalid, false
}

func (c *refCache) accessTracked(addr uint64, write bool) (victimLine uint64, victimDirty bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	lineAddr := addr >> c.lineShift
	si := lineAddr & c.setMask
	s := &c.sets[si]
	for w := 0; w < c.assoc; w++ {
		if s.state[w] != Invalid && s.tag[w] == lineAddr {
			c.stats.Hits++
			if write {
				if c.cfg.WriteThrough {
					c.stats.WriteThroughs++
				} else {
					s.state[w] = Modified
				}
			}
			c.policy.touch(s, w, c.assoc)
			return 0, false
		}
	}
	if write && c.cfg.WriteThrough {
		c.stats.Misses++
		c.stats.WriteThroughs++
		return 0, false
	}
	c.stats.Misses++
	way := -1
	for w := 0; w < c.assoc; w++ {
		if s.state[w] == Invalid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.victim(s, c.assoc)
		switch s.state[way] {
		case Modified:
			c.stats.VictimsM++
			victimLine, victimDirty = s.tag[way], true
		case Exclusive:
			c.stats.VictimsE++
		}
	}
	c.stats.FillsE++
	s.tag[way] = lineAddr
	if write {
		s.state[way] = Modified
	} else {
		s.state[way] = Exclusive
	}
	c.policy.insert(s, way, c.assoc)
	return victimLine, victimDirty
}

// refHierarchy is the original Hierarchy over reference levels.
type refHierarchy struct {
	levels []*refCache
}

func newRefHierarchy(cfgs ...Config) *refHierarchy {
	h := &refHierarchy{}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, newRefCache(cfg))
	}
	return h
}

func (h *refHierarchy) Access(addr uint64, write bool) { h.access(0, addr, write) }

func (h *refHierarchy) access(lvl int, addr uint64, write bool) {
	c := h.levels[lvl]
	hitsBefore := c.stats.Hits
	wbLine, wbValid := c.accessTracked(addr, write)
	missed := c.stats.Hits == hitsBefore
	if lvl+1 < len(h.levels) {
		if missed {
			h.access(lvl+1, addr, false)
		}
		if wbValid {
			h.access(lvl+1, wbLine<<c.lineShift, true)
		}
	}
}

func (h *refHierarchy) FlushDirty() {
	for i := 0; i < len(h.levels); i++ {
		c := h.levels[i]
		for si := range c.sets {
			s := &c.sets[si]
			for w := 0; w < c.assoc; w++ {
				if s.state[w] == Modified {
					c.stats.VictimsM++
					c.stats.Flushed++
					if i+1 < len(h.levels) {
						h.access(i+1, s.tag[w]<<c.lineShift, true)
					}
				}
				s.state[w] = Invalid
				s.meta[w] = 0
			}
			s.aux = 0
			s.aux2 = 0
		}
	}
}

// refPolicy is the original per-access hook set.
type refPolicy interface {
	touch(s *refSet, w, assoc int)
	insert(s *refSet, w, assoc int)
	victim(s *refSet, assoc int) int
}

func newRefPolicy(k PolicyKind, seed uint64) refPolicy {
	switch k {
	case PolicyLRU:
		return refLRU{}
	case PolicyClock3:
		return refClock3{}
	case PolicyFIFO:
		return refFIFO{}
	case PolicyPLRU:
		return refPLRU{}
	case PolicyRandom:
		return &refRandom{rng: rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))}
	default:
		panic(fmt.Sprintf("cache: unknown policy %v", k))
	}
}

type refLRU struct{}

func (refLRU) touch(s *refSet, w, _ int) {
	s.aux++
	s.meta[w] = s.aux
}

func (refLRU) insert(s *refSet, w, assoc int) { refLRU{}.touch(s, w, assoc) }

func (refLRU) victim(s *refSet, assoc int) int {
	best, bestStamp := 0, s.meta[0]
	for w := 1; w < assoc; w++ {
		if s.meta[w] < bestStamp {
			best, bestStamp = w, s.meta[w]
		}
	}
	return best
}

type refClock3 struct{}

func (refClock3) touch(s *refSet, w, _ int) {
	if s.meta[w] < clock3Max {
		s.meta[w]++
	}
}

func (refClock3) insert(s *refSet, w, _ int) { s.meta[w] = 1 }

func (refClock3) victim(s *refSet, assoc int) int {
	for {
		for i := 0; i < assoc; i++ {
			w := int(s.aux) % assoc
			s.aux = uint32((w + 1) % assoc)
			if s.meta[w] == 0 {
				return w
			}
		}
		for w := 0; w < assoc; w++ {
			if s.meta[w] > 0 {
				s.meta[w]--
			}
		}
	}
}

type refFIFO struct{}

func (refFIFO) touch(*refSet, int, int) {}

func (refFIFO) insert(s *refSet, w, _ int) {
	s.aux++
	s.meta[w] = s.aux
}

func (refFIFO) victim(s *refSet, assoc int) int {
	best, bestStamp := 0, s.meta[0]
	for w := 1; w < assoc; w++ {
		if s.meta[w] < bestStamp {
			best, bestStamp = w, s.meta[w]
		}
	}
	return best
}

type refPLRU struct{}

func (refPLRU) touch(s *refSet, w, assoc int) {
	node := 0
	lo, hi := 0, assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			s.aux2 |= 1 << uint(node)
			node = 2*node + 1
			hi = mid
		} else {
			s.aux2 &^= 1 << uint(node)
			node = 2*node + 2
			lo = mid
		}
	}
}

func (refPLRU) insert(s *refSet, w, assoc int) { refPLRU{}.touch(s, w, assoc) }

func (refPLRU) victim(s *refSet, assoc int) int {
	if assoc&(assoc-1) != 0 {
		panic("cache: PLRU requires power-of-two associativity")
	}
	node := 0
	lo, hi := 0, assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.aux2&(1<<uint(node)) != 0 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

type refRandom struct {
	rng *rand.Rand
}

func (*refRandom) touch(*refSet, int, int)  {}
func (*refRandom) insert(*refSet, int, int) {}

func (p *refRandom) victim(_ *refSet, assoc int) int { return p.rng.IntN(assoc) }
