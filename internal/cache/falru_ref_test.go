package cache

// refFALRU is the original FALRU: a hash map plus an intrusive, heap-
// allocated doubly-linked recency list, one node per fill. It stays as the
// slow, obviously-correct reference the pooled FALRU is pinned against.
type refFALRU struct {
	lineShift uint
	capacity  int // lines
	nodes     map[uint64]*refNode
	head      *refNode // most recently used
	tail      *refNode // least recently used
	stats     Stats
}

type refNode struct {
	line       uint64
	dirty      bool
	prev, next *refNode
}

func newRefFALRU(sizeBytes, lineBytes int) *refFALRU {
	c := &refFALRU{capacity: sizeBytes / lineBytes, nodes: make(map[uint64]*refNode)}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

func (c *refFALRU) Stats() Stats { return c.stats }

func (c *refFALRU) Access(addr uint64, write bool) {
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	line := addr >> c.lineShift
	if n, ok := c.nodes[line]; ok {
		c.stats.Hits++
		if write {
			n.dirty = true
		}
		c.moveToFront(n)
		return
	}
	c.stats.Misses++
	if len(c.nodes) >= c.capacity {
		v := c.tail
		c.unlink(v)
		delete(c.nodes, v.line)
		if v.dirty {
			c.stats.VictimsM++
		} else {
			c.stats.VictimsE++
		}
	}
	c.stats.FillsE++
	n := &refNode{line: line, dirty: write}
	c.nodes[line] = n
	c.pushFront(n)
}

func (c *refFALRU) FlushDirty() {
	for _, n := range c.nodes {
		if n.dirty {
			c.stats.VictimsM++
			c.stats.Flushed++
		}
	}
	c.nodes = make(map[uint64]*refNode)
	c.head, c.tail = nil, nil
}

func (c *refFALRU) Contains(addr uint64) (State, bool) {
	n, ok := c.nodes[addr>>c.lineShift]
	if !ok {
		return Invalid, false
	}
	if n.dirty {
		return Modified, true
	}
	return Exclusive, true
}

func (c *refFALRU) LRUDistance(addr uint64) int {
	line := addr >> c.lineShift
	rank := 0
	for n := c.head; n != nil; n = n.next {
		if n.line == line {
			return rank
		}
		rank++
	}
	return -1
}

func (c *refFALRU) moveToFront(n *refNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *refFALRU) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *refFALRU) pushFront(n *refNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}
