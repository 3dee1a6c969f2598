package cache

import "fmt"

// PolicyKind selects a replacement policy.
type PolicyKind int

// Available replacement policies.
const (
	// PolicyLRU is true least-recently-used.
	PolicyLRU PolicyKind = iota
	// PolicyClock3 is the 3-bit clock algorithm the paper cites as
	// Nehalem-EX's LRU approximation: each line carries a 3-bit recency
	// marker incremented on hits; the victim search scans clockwise for a
	// marker of 0, decrementing all markers each full lap.
	PolicyClock3
	// PolicyFIFO evicts the oldest-filled line.
	PolicyFIFO
	// PolicyPLRU is tree-based pseudo-LRU (associativity must be a power
	// of two).
	PolicyPLRU
	// PolicyRandom evicts a uniformly random way (seeded, deterministic).
	PolicyRandom
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "LRU"
	case PolicyClock3:
		return "CLOCK3"
	case PolicyFIFO:
		return "FIFO"
	case PolicyPLRU:
		return "PLRU"
	case PolicyRandom:
		return "RANDOM"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// clock3Max is the saturating top of a CLOCK3 marker.
const clock3Max = 7

// touch records a hit on way w of set s, whose ways start at base.
func (c *Cache) touch(s *set, base, w int) {
	switch c.cfg.Policy {
	case PolicyLRU:
		s.clock++
		c.marks[base+w] = s.clock
	case PolicyClock3:
		if c.marks[base+w] < clock3Max {
			c.marks[base+w]++
		}
	case PolicyPLRU:
		s.plru = plruTouch(s.plru, w, c.assoc)
	}
}

// insert records a fill into way w of set s, whose ways start at base.
func (c *Cache) insert(s *set, base, w int) {
	switch c.cfg.Policy {
	case PolicyLRU, PolicyFIFO:
		s.clock++
		c.marks[base+w] = s.clock
	case PolicyClock3:
		c.marks[base+w] = 1 // a fresh line starts recently used
	case PolicyPLRU:
		s.plru = plruTouch(s.plru, w, c.assoc)
	}
}

// victim picks the way to evict from the full set s, whose ways start at
// base.
func (c *Cache) victim(s *set, base int) int {
	marks := c.marks[base : base+c.assoc]
	switch c.cfg.Policy {
	case PolicyClock3:
		return clock3Victim(marks, &s.clock)
	case PolicyPLRU:
		return plruVictim(s.plru, c.assoc)
	case PolicyRandom:
		return c.rng.IntN(c.assoc)
	}
	// LRU and FIFO: the oldest stamp, the first way among equals.
	best, oldest := 0, marks[0]
	for w, m := range marks {
		if m < oldest {
			best, oldest = w, m
		}
	}
	return best
}

// clock3Victim runs the 3-bit clock's victim search over the markers of one
// full set: sweep from the hand for a 0 marker, taking it and leaving the
// hand just past it. A lap that finds none ends back at the hand and then
// decrements every marker, so the search laps exactly as many times as the
// set's smallest marker m before a lap finds a 0, and every marker is then
// m lower. One lap that finds no 0, one subtraction of m and one more sweep
// give the same victim, markers and hand.
func clock3Victim(marks []uint32, hand *uint32) int {
	w, low := clock3Sweep(marks, int(*hand))
	if w < 0 {
		for i := range marks {
			marks[i] -= low
		}
		w, _ = clock3Sweep(marks, int(*hand))
	}
	if *hand = uint32(w + 1); int(*hand) == len(marks) {
		*hand = 0
	}
	return w
}

// clock3Sweep looks once round the set, from way from on, for a 0 marker:
// it returns that way, or -1 and the smallest marker.
func clock3Sweep(marks []uint32, from int) (int, uint32) {
	low := uint32(clock3Max)
	for w := from; w < len(marks); w++ {
		if marks[w] == 0 {
			return w, 0
		}
		low = min(low, marks[w])
	}
	for w := 0; w < from; w++ {
		if marks[w] == 0 {
			return w, 0
		}
		low = min(low, marks[w])
	}
	return -1, low
}

// Tree PLRU keeps one bit per node of a complete binary tree over the ways,
// nodes numbered heap-wise from the root 0; a set bit means the left half
// was used last, so the victim search goes right. Validation guarantees a
// power-of-two associativity, so way w's path follows w's bits from the top,
// of at most plruMaxWays, so the assoc-1 nodes fit a set's uint32 of bits.

// plruMaxWays is the most ways a PLRU set's node bits can cover.
const plruMaxWays = 32

// plruTouch points every node on way w's path away from w.
func plruTouch(bits uint32, w, assoc int) uint32 {
	node := 0
	for half := assoc >> 1; half > 0; half >>= 1 {
		if w&half == 0 {
			bits |= 1 << uint(node)
			node = 2*node + 1
		} else {
			bits &^= 1 << uint(node)
			node = 2*node + 2
		}
	}
	return bits
}

// plruVictim follows the bits from the root to the way they point at.
func plruVictim(bits uint32, assoc int) int {
	node, w := 0, 0
	for half := assoc >> 1; half > 0; half >>= 1 {
		if bits&(1<<uint(node)) != 0 {
			w += half
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	return w
}
