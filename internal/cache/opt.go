package cache

import (
	"container/heap"

	"writeavoid/internal/access"
)

// SimulateOPT replays a recorded trace through a fully-associative cache with
// Belady's offline-optimal (furthest-next-use) replacement. It is the "ideal
// cache" of the cache-oblivious literature and the reference line of
// Figure 2a. Offline optimality needs the whole trace up front, so unlike the
// online simulators this one takes a materialized []Op.
//
// Write-back accounting matches the online simulators exactly: every dirty
// line leaving the cache is one write-back counted in VictimsM — whether it
// is evicted mid-run by replacement or written back by the implicit
// end-of-trace flush — and Flushed counts the end-of-trace subset, so
// Flushed <= VictimsM and Writebacks() needs no extra FlushDirty call.
// (The online Cache/FALRU simulators only reach the same totals when the
// driver calls FlushDirty after the replay, as every driver in this
// repository does.)
func SimulateOPT(ops []access.Op, sizeBytes, lineBytes int) Stats {
	s := newOptSim(ops, sizeBytes, lineBytes)
	for i, op := range ops {
		s.access(i, op)
	}
	s.flushDirty()
	return s.st
}

// optSim is the internal state of one Belady replay. The eviction candidate
// order lives in a max-heap of (nextUse, line) entries that are invalidated
// lazily: every access of a resident line pushes a fresh entry and leaves
// the old one stale, to be skipped when popped. Left unchecked, that grows
// the heap to O(trace length) on hit-heavy traces, so access compacts the
// heap — rebuilding it from the authoritative nextUse map — whenever stale
// entries outnumber residents. Each live line keeps exactly one fresh entry,
// making the post-compaction length len(res) and the steady-state bound
// 2*capacity + 1 entries (plus a small floor so tiny caches don't thrash).
type optSim struct {
	capacity int
	shift    uint
	next     []int // next[i] = index of the next access to ops[i]'s line
	st       Stats
	res      map[uint64]bool // resident line -> dirty
	nextUse  map[uint64]int  // resident line -> authoritative next use
	h        optHeap
}

// optCompactFloor is the minimum heap length before compaction is
// considered; below it the O(n) rebuild costs more than it saves.
const optCompactFloor = 64

func newOptSim(ops []access.Op, sizeBytes, lineBytes int) *optSim {
	if err := CheckLines(sizeBytes, lineBytes); err != nil {
		panic(err)
	}
	capacity := sizeBytes / lineBytes
	s := &optSim{
		capacity: capacity,
		res:      make(map[uint64]bool, capacity+1),
		nextUse:  make(map[uint64]int, capacity+1),
	}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		s.shift++
	}
	// next[i] = index of the next access to the same line after i, or inf
	// if none.
	const inf = int(^uint(0) >> 1)
	s.next = make([]int, len(ops))
	last := make(map[uint64]int, 1024)
	for i := len(ops) - 1; i >= 0; i-- {
		line := ops[i].Addr >> s.shift
		if j, ok := last[line]; ok {
			s.next[i] = j
		} else {
			s.next[i] = inf
		}
		last[line] = i
	}
	return s
}

// access replays ops[i] = op.
func (s *optSim) access(i int, op access.Op) {
	s.st.Accesses++
	if op.Write {
		s.st.Writes++
	} else {
		s.st.Reads++
	}
	line := op.Addr >> s.shift
	if _, ok := s.res[line]; ok {
		s.st.Hits++
		if op.Write {
			s.res[line] = true
		}
		s.touch(line, s.next[i])
		return
	}
	s.st.Misses++
	if len(s.res) >= s.capacity {
		s.evict()
	}
	s.st.FillsE++
	s.res[line] = op.Write
	s.touch(line, s.next[i])
}

// touch records line's new next use, pushing a fresh heap entry (the old one,
// if any, goes stale) and compacting if stale entries have taken over.
func (s *optSim) touch(line uint64, use int) {
	s.nextUse[line] = use
	heap.Push(&s.h, optEntry{use: use, line: line})
	if len(s.h) > optCompactFloor && len(s.h) > 2*len(s.res) {
		s.compact()
	}
}

// evict removes the resident line with the furthest next use, skipping stale
// heap entries, and counts the victim: one write-back (VictimsM) if the line
// is dirty, VictimsE otherwise.
func (s *optSim) evict() {
	for {
		e := heap.Pop(&s.h).(optEntry)
		dirty, ok := s.res[e.line]
		if !ok || s.nextUse[e.line] != e.use {
			continue // stale
		}
		if dirty {
			s.st.VictimsM++
		} else {
			s.st.VictimsE++
		}
		delete(s.res, e.line)
		delete(s.nextUse, e.line)
		return
	}
}

// compact rebuilds the heap with exactly one fresh entry per resident line.
func (s *optSim) compact() {
	s.h = s.h[:0]
	for line, use := range s.nextUse {
		s.h = append(s.h, optEntry{use: use, line: line})
	}
	heap.Init(&s.h)
}

// flushDirty is the implicit end-of-trace flush: every still-resident dirty
// line is written back, counted in both VictimsM (it is a write-back like
// any other) and Flushed (it happened at the flush), mirroring the online
// simulators' FlushDirty.
func (s *optSim) flushDirty() {
	for _, dirty := range s.res {
		if dirty {
			s.st.VictimsM++
			s.st.Flushed++
		}
	}
}

// heapLen exposes the current candidate-heap length to the boundedness test.
func (s *optSim) heapLen() int { return len(s.h) }

type optEntry struct {
	use  int
	line uint64
}

type optHeap []optEntry

func (h optHeap) Len() int { return len(h) }

// Less orders by furthest next use, breaking ties (lines never used again
// all share use == inf) on the line number. The strict total order makes the
// eviction victim a pure function of the resident set, so replays are
// deterministic and compaction cannot change which line a tie evicts.
func (h optHeap) Less(i, j int) bool {
	if h[i].use != h[j].use {
		return h[i].use > h[j].use // max-heap on next use
	}
	return h[i].line > h[j].line
}
func (h optHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x interface{}) { *h = append(*h, x.(optEntry)) }
func (h *optHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
