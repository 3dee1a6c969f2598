package profile

import (
	"fmt"
	"io"
	"sort"

	"writeavoid/internal/machine"
)

// ReuseRecorder computes the LRU stack (reuse) distance of every element
// access in the EvTouch stream: the number of DISTINCT other addresses
// touched since the previous touch of the same address, split by access
// direction. The distance spectrum is the structural form of the paper's
// locality claims — a fully-associative LRU memory of W words hits an
// access exactly when its distance is below W — so the histogram tail at W
// is the miss count, and the write-distance tail drives the Proposition 6.1
// write-back floor.
//
// Distances are computed online in O(log n) per access with a Fenwick
// (binary indexed) tree over access timestamps: each address keeps one mark
// at the position of its most recent access, so the number of marks after
// an address's previous position IS its reuse distance. The recorder also
// keeps a compact per-access log (id, distance, write) so WriteBackFloor
// can replay dirty-line lifetimes for any capacity after the fact.
//
// Like every synchronous recorder it is not safe for concurrent use.
type ReuseRecorder struct {
	machine.Sources
	last  map[uint64]int64 // addr -> 1-based timestamp of previous touch
	ids   map[uint64]int32 // addr -> dense id for the replay log
	marks []bool           // marks[t] = t is some address's latest touch
	bit   []int64          // Fenwick tree over marks, 1-based
	n     int64            // touches so far

	reads  map[int64]int64 // distance -> count, reads
	writes map[int64]int64 // distance -> count, writes
	// ColdReads/ColdWrites count first-ever touches (infinite distance).
	ColdReads, ColdWrites int64

	log []reuseOp
}

// reuseOp is one replay-log entry; dist < 0 encodes a cold access.
type reuseOp struct {
	id    int32
	dist  int64
	write bool
}

// NewReuseRecorder returns an empty recorder.
func NewReuseRecorder() *ReuseRecorder {
	return &ReuseRecorder{
		last:   make(map[uint64]int64),
		ids:    make(map[uint64]int32),
		reads:  make(map[int64]int64),
		writes: make(map[int64]int64),
	}
}

// WantsTouch subscribes the recorder to the per-element stream.
func (r *ReuseRecorder) WantsTouch() bool { return true }

// Record consumes a block of events in order; only EvTouch carries reuse
// information.
func (r *ReuseRecorder) Record(events []machine.Event) {
	for i := range events {
		if events[i].Kind == machine.EvTouch {
			r.Touch(events[i].Addr, events[i].Write)
		}
	}
}

// Touch processes one element access directly (the access.Sink shape, for
// replaying recorded traces through the same machinery).
func (r *ReuseRecorder) Touch(addr uint64, write bool) {
	r.n++
	r.growTo(r.n)
	id, known := r.ids[addr]
	if !known {
		id = int32(len(r.ids))
		r.ids[addr] = id
	}
	dist := int64(-1)
	if prev, ok := r.last[addr]; ok {
		// Marks after prev are exactly the distinct addresses whose most
		// recent touch came after addr's.
		dist = int64(len(r.last)) - r.prefix(prev)
		r.add(prev, -1)
		if write {
			r.writes[dist]++
		} else {
			r.reads[dist]++
		}
	} else if write {
		r.ColdWrites++
	} else {
		r.ColdReads++
	}
	r.last[addr] = r.n
	r.add(r.n, 1)
	r.log = append(r.log, reuseOp{id: id, dist: dist, write: write})
}

// growTo ensures the tree covers positions 1..t, rebuilding from the mark
// array on capacity doubling (amortized O(1) per touch).
func (r *ReuseRecorder) growTo(t int64) {
	if int(t) < len(r.marks) {
		return
	}
	newCap := 2 * len(r.marks)
	if newCap < int(t)+1 {
		newCap = int(t) + 64
	}
	marks := make([]bool, newCap)
	copy(marks, r.marks)
	r.marks = marks
	r.bit = make([]int64, newCap)
	for i := 1; i < newCap; i++ {
		if r.marks[i] {
			r.bitAdd(int64(i), 1)
		}
	}
}

func (r *ReuseRecorder) add(pos, delta int64) {
	r.marks[pos] = delta > 0
	r.bitAdd(pos, delta)
}

func (r *ReuseRecorder) bitAdd(pos, delta int64) {
	for i := pos; i < int64(len(r.bit)); i += i & -i {
		r.bit[i] += delta
	}
}

// prefix returns the number of marks at positions 1..pos.
func (r *ReuseRecorder) prefix(pos int64) int64 {
	var s int64
	for i := pos; i > 0; i -= i & -i {
		s += r.bit[i]
	}
	return s
}

// Touches returns the number of accesses processed (buffered events synced
// first, like every read method here).
func (r *ReuseRecorder) Touches() int64 {
	r.Sync()
	return r.n
}

// Addresses returns the number of distinct addresses seen.
func (r *ReuseRecorder) Addresses() int {
	r.Sync()
	return len(r.ids)
}

// ReadDist and WriteDist return copies of the exact distance histograms
// (cold accesses are the separate ColdReads/ColdWrites tallies).
func (r *ReuseRecorder) ReadDist() map[int64]int64 {
	r.Sync()
	return copyHist(r.reads)
}
func (r *ReuseRecorder) WriteDist() map[int64]int64 {
	r.Sync()
	return copyHist(r.writes)
}

func copyHist(h map[int64]int64) map[int64]int64 {
	out := make(map[int64]int64, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Misses returns the number of accesses a fully-associative LRU memory of
// capacity words would miss: the histogram tail at the capacity plus every
// cold access.
func (r *ReuseRecorder) Misses(capacity int64) int64 {
	r.Sync()
	miss := r.ColdReads + r.ColdWrites
	for d, c := range r.reads {
		if d >= capacity {
			miss += c
		}
	}
	for d, c := range r.writes {
		if d >= capacity {
			miss += c
		}
	}
	return miss
}

// WriteBackFloor returns the number of write-backs a fully-associative LRU
// write-back memory of capacity words performs on the recorded access
// stream, final flush included: every generation of a line (from fill to
// eviction, where an access at distance >= capacity is by the stack
// property exactly a miss) that contains at least one write is written
// back once. This is the Proposition 6.1 floor the write-distance tail
// induces, and it equals cache.FALRU's VictimsM after FlushDirty.
func (r *ReuseRecorder) WriteBackFloor(capacity int64) int64 {
	r.Sync()
	dirty := make([]bool, len(r.ids))
	var wb int64
	for _, op := range r.log {
		miss := op.dist < 0 || op.dist >= capacity
		if miss && dirty[op.id] {
			// The line was evicted dirty somewhere between its last touch
			// and this refetch; the write-back already happened.
			wb++
			dirty[op.id] = false
		}
		if op.write {
			dirty[op.id] = true
		}
	}
	for _, d := range dirty {
		if d {
			wb++ // evicted dirty later, or flushed dirty at the end
		}
	}
	return wb
}

// RenderHist writes the read and write distance spectra as an aligned
// power-of-two-bucketed ASCII table.
func (r *ReuseRecorder) RenderHist(w io.Writer) {
	r.Sync()
	reads := bucketize(r.reads)
	writes := bucketize(r.writes)
	var keys []int
	seen := map[int]bool{}
	for b := range reads {
		if !seen[b] {
			seen[b] = true
			keys = append(keys, b)
		}
	}
	for b := range writes {
		if !seen[b] {
			seen[b] = true
			keys = append(keys, b)
		}
	}
	sort.Ints(keys)
	fmt.Fprintf(w, "%-18s %12s %12s\n", "distance", "reads", "writes")
	for _, b := range keys {
		fmt.Fprintf(w, "%-18s %12d %12d\n", bucketLabel(b), reads[b], writes[b])
	}
	fmt.Fprintf(w, "%-18s %12d %12d\n", "cold", r.ColdReads, r.ColdWrites)
}

// bucketize folds an exact histogram into power-of-two buckets: bucket b
// holds distances in [2^(b-1), 2^b), with bucket 0 holding distance 0.
func bucketize(h map[int64]int64) map[int]int64 {
	out := make(map[int]int64)
	for d, c := range h {
		out[bucketOf(d)] += c
	}
	return out
}

func bucketOf(d int64) int {
	b := 0
	for v := d; v > 0; v >>= 1 {
		b++
	}
	return b
}

func bucketLabel(b int) string {
	if b == 0 {
		return "0"
	}
	lo := int64(1) << (b - 1)
	hi := int64(1)<<b - 1
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}
