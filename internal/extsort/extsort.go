// Package extsort implements external-memory sorting over the explicit
// machine model. Sort is the exhibit for the paper's Section 9 conjecture
// that no algorithm for sorting can perform o(n log_M n) writes while
// keeping O(n log_M n) reads: the standard I/O-optimal multiway mergesort
// writes as much as it reads in every pass, for every fast-memory size.
//
// SortWriteEfficient is the other side of the trade the paper's successors
// (Blelloch/Fineman/Gibbons/Gu, arXiv:1511.01038) formalize with the
// explicit write-cost parameter ω: a selection-based schedule that stores
// every output word exactly once — n slow-memory writes total — by paying
// ceil(n/(m/2)) full read passes. SortOmega compares the two under the
// (M, ω) cost reads + ω·writes and runs whichever is cheaper, shrinking the
// merge variant's per-run buffers as ω grows to buy larger fanout (fewer
// passes, hence fewer writes) first.
package extsort

import (
	"fmt"
	"math"
	"sort"

	"writeavoid/internal/intmath"
	"writeavoid/internal/machine"
)

// defaultBuf is the classical per-run merge buffer size (words).
const defaultBuf = 8

// run is a sorted contiguous segment [lo, hi) living in src.
type run struct {
	lo, hi int
	src    []float64
}

// Sort sorts data ascending with run formation plus multiway merge passes on
// a two-level machine whose fast memory holds m words, driving h's counters.
// The merge fanout is chosen so each input run gets a fast-memory buffer of
// at least 8 words (plus one output buffer). A trailing merge group that
// contains a single run is left in place rather than round-tripped through
// slow memory: it is already sorted, so re-reading and re-writing it would
// charge a full pass for nothing.
func Sort(h *machine.Hierarchy, m int, data []float64) ([]float64, error) {
	return sortMerge(h, m, defaultBuf, data)
}

// sortMerge is the merge-based sort with a configurable per-run buffer size;
// buf = defaultBuf is the classical Sort, smaller buffers buy larger fanout
// at the price of more messages (SortOmega's knob).
func sortMerge(h *machine.Hierarchy, m, buf int, data []float64) ([]float64, error) {
	n := len(data)
	if m < 32 {
		return nil, fmt.Errorf("extsort: fast memory %d too small (need >= 32 words)", m)
	}
	if err := checkNaN(data); err != nil {
		return nil, err
	}
	out := append([]float64(nil), data...)
	if n <= 1 {
		// Nothing moves and nothing is compared: a 0- or 1-word input is
		// already sorted without touching the hierarchy.
		return out, nil
	}
	if n <= m {
		// Degenerate: a single in-memory run.
		h.Load(0, int64(n))
		sort.Float64s(out)
		h.Flops(int64(n) * intmath.Log2Ceil(n))
		h.Store(0, int64(n))
		return out, nil
	}

	// Phase 1: run formation. Read fast-memory-sized chunks, sort, write.
	// A trailing 1-word chunk costs its load and store but no comparisons.
	var runs []run
	for lo := 0; lo < n; lo += m {
		hi := min(n, lo+m)
		h.Load(0, int64(hi-lo))
		sort.Float64s(out[lo:hi])
		if hi-lo > 1 {
			h.Flops(int64(hi-lo) * intmath.Log2Ceil(hi-lo))
		}
		h.Store(0, int64(hi-lo))
		runs = append(runs, run{lo, hi, out})
	}

	// Phase 2: multiway merge passes with per-run buffers of size buf.
	// Runs live in whichever of the two arrays last wrote them; each pass
	// merges groups into the current dst, except single-run trailing groups,
	// which stay where they are free of charge. An in-place group (its last
	// run already in dst) is safe: the merged output index always trails
	// every unread index of that run, because the runs before it in the
	// group occupy exactly the dst prefix the merge fills first.
	fanout := m/buf - 1
	if fanout < 2 {
		fanout = 2
	}
	scratch := make([]float64, n)
	dst := scratch
	other := out
	mg := merger{cur: make([]cursor, 0, fanout), hp: make(mergeHeap, 0, fanout)}
	for len(runs) > 1 {
		var next []run
		for g := 0; g < len(runs); g += fanout {
			ge := min(len(runs), g+fanout)
			if ge-g == 1 {
				next = append(next, runs[g])
				continue
			}
			mg.merge(h, dst, runs[g:ge], buf)
			next = append(next, run{runs[g].lo, runs[ge-1].hi, dst})
		}
		runs = next
		dst, other = other, dst
	}
	_ = other
	return runs[0].src, nil
}

// checkNaN rejects an input holding a NaN, naming the first. NaN compares
// false with everything, so it has no place in an ascending order: the
// merge would pass it through wherever its run put it, and the selection
// schedule would never select it and run out of candidates.
func checkNaN(data []float64) error {
	for i, v := range data {
		if math.IsNaN(v) {
			return fmt.Errorf("extsort: data[%d] is NaN; NaN has no place in a sorted order", i)
		}
	}
	return nil
}

// merger holds a merge's cursors and heap, reused by every group of a sort.
type merger struct {
	cur []cursor
	hp  mergeHeap
}

// merge merges the given runs (each knowing which array its words live in)
// into dst over the group's index range, charging buffered traffic: every
// word is loaded once (in buf-word blocks) and stored once (in buf-word
// blocks). Refills always load exactly the words remaining in the run
// (capped at buf), so a cursor's buffer drains to zero exactly when the run
// is exhausted — no residual words to discard.
func (mg *merger) merge(h *machine.Hierarchy, dst []float64, runs []run, buf int) {
	cur := mg.cur[:0]
	hp := mg.hp[:0]
	for i, r := range runs {
		cur = append(cur, cursor{src: r.src, pos: r.lo, hi: r.hi})
		if r.lo < r.hi {
			first := min(buf, r.hi-r.lo)
			h.Load(0, int64(first))
			cur[i].buffered = first
			hp.push(mergeItem{v: r.src[r.lo], run: i})
		}
	}
	lg := int64(intmath.Log2Ceil(len(runs)))
	outBase := runs[0].lo
	pending := 0 // words accumulated in the fast-memory output buffer
	for len(hp) > 0 {
		it := hp.pop()
		c := &cur[it.run]
		dst[outBase] = it.v
		outBase++
		pending++
		h.Flops(lg)
		if pending == buf {
			h.Store(0, int64(buf))
			pending = 0
		}
		c.pos++
		c.buffered--
		if c.pos < c.hi {
			if c.buffered == 0 {
				refill := min(buf, c.hi-c.pos)
				h.Load(0, int64(refill))
				c.buffered = refill
			}
			hp.push(mergeItem{v: c.src[c.pos], run: it.run})
		}
	}
	if pending > 0 {
		h.Store(0, int64(pending))
	}
	mg.cur, mg.hp = cur, hp
}

// cursor tracks one run's read position during a merge: which array its
// words live in, the next unread index, and how many words of the current
// buffer block are resident.
type cursor struct {
	src      []float64
	pos, hi  int
	buffered int
}

// mergeItem is one run's head: its value, kept in the item so comparisons
// never reach into the run, and the run it came from.
type mergeItem struct {
	v   float64
	run int
}

// mergeHeap is a min-heap of run heads by value. push and pop sift exactly
// as container/heap's Push and Pop do, so heads that compare equal (+0 and
// -0 among them) leave in the same order as they did through that package.
type mergeHeap []mergeItem

func (h *mergeHeap) push(it mergeItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].v < q[i].v) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *mergeHeap) pop() mergeItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].v < q[j].v {
			j = j2
		}
		if !(q[j].v < q[i].v) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// PredictTraffic returns the exact slow-memory word traffic of Sort on an
// n-word input with m words of fast memory: run formation plus one
// load+store per word per merge pass, minus the words of trailing
// single-run groups that stay in place.
func PredictTraffic(n, m int) (loads, stores int64) {
	return predictMergeTraffic(n, m, defaultBuf)
}

// predictMergeTraffic simulates sortMerge's pass structure over the ragged
// run lengths without moving data, so the counts match the counters bit for
// bit for every n, m, buf.
func predictMergeTraffic(n, m, buf int) (loads, stores int64) {
	if n <= 1 {
		return 0, 0
	}
	if n <= m {
		return int64(n), int64(n)
	}
	loads, stores = int64(n), int64(n) // run formation
	var lens []int
	for lo := 0; lo < n; lo += m {
		lens = append(lens, min(n, lo+m)-lo)
	}
	fanout := m/buf - 1
	if fanout < 2 {
		fanout = 2
	}
	for len(lens) > 1 {
		var next []int
		for g := 0; g < len(lens); g += fanout {
			ge := min(len(lens), g+fanout)
			w := 0
			for _, l := range lens[g:ge] {
				w += l
			}
			if ge-g > 1 {
				loads += int64(w)
				stores += int64(w)
			}
			next = append(next, w)
		}
		lens = next
	}
	return loads, stores
}

// cand is a selection-sort candidate: a value plus its original index, so
// duplicates have a strict total order and the threshold can advance past
// every copy exactly once.
type cand struct {
	v float64
	i int
}

// candLess orders candidates by (value, original index).
func candLess(a, b cand) bool {
	return a.v < b.v || (a.v == b.v && a.i < b.i)
}

// candHeap is a max-heap of candidates: the root is the largest, so a
// full heap of the k smallest eligible elements evicts from the top. push,
// pop and down sift exactly as container/heap's Push, Pop and Fix do.
type candHeap []cand

func (h *candHeap) push(x cand) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !candLess(q[i], q[j]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *candHeap) pop() cand {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	q[:n].down(0)
	*h = q[:n]
	return q[n]
}

// down sifts q[i] toward the leaves: container/heap's Fix of a root whose
// value only shrank.
func (q candHeap) down(i int) {
	n := len(q)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && candLess(q[j], q[j2]) {
			j = j2
		}
		if !candLess(q[i], q[j]) {
			return
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// SortWriteEfficient sorts data ascending with O(n) slow-memory stores: each
// round scans the whole input in (m - m/2)-word chunks, keeps the m/2
// smallest not-yet-output elements in a fast-memory heap, and writes them
// out in order — every output word is stored exactly once, at the price of
// ceil(n/(m/2)) full read passes. This is the small-write end of the
// read/write trade the ω model prices (arXiv:1511.01038 §5).
func SortWriteEfficient(h *machine.Hierarchy, m int, data []float64) ([]float64, error) {
	n := len(data)
	if m < 32 {
		return nil, fmt.Errorf("extsort: fast memory %d too small (need >= 32 words)", m)
	}
	if err := checkNaN(data); err != nil {
		return nil, err
	}
	if n <= 1 {
		return append([]float64(nil), data...), nil
	}
	if n <= m {
		out := append([]float64(nil), data...)
		h.Load(0, int64(n))
		sort.Float64s(out)
		h.Flops(int64(n) * intmath.Log2Ceil(n))
		h.Store(0, int64(n))
		return out, nil
	}

	k := m / 2 // candidate heap capacity
	c := m - k // scan chunk size; peak residency k + c = m
	res := make([]float64, 0, n)
	threshold := cand{math.Inf(-1), -1}
	hp := make(candHeap, 0, k)
	tmp := make([]cand, k)
	for len(res) < n {
		hp = hp[:0]
		for lo := 0; lo < n; lo += c {
			hi := min(n, lo+c)
			sz := hi - lo
			h.Load(0, int64(sz))
			kept := 0
			for i := lo; i < hi; i++ {
				x := cand{data[i], i}
				if !candLess(threshold, x) {
					continue // already output in an earlier round
				}
				if len(hp) < k {
					hp.push(x)
					kept++
				} else if candLess(x, hp[0]) {
					h.Discard(0, 1) // the evicted former candidate
					hp[0] = x
					hp.down(0)
					kept++
				}
			}
			// Each scanned word costs one heap comparison path; words never
			// kept leave fast memory at the end of the chunk.
			h.Flops(int64(sz) * intmath.Log2Ceil(k))
			if sz-kept > 0 {
				h.Discard(0, int64(sz-kept))
			}
		}
		hk := len(hp)
		for i := hk - 1; i >= 0; i-- {
			tmp[i] = hp.pop()
		}
		if hk > 1 {
			h.Flops(int64(hk) * intmath.Log2Ceil(hk))
		}
		for _, cd := range tmp[:hk] {
			res = append(res, cd.v)
		}
		threshold = tmp[hk-1]
		h.Store(0, int64(hk))
	}
	return res, nil
}

// PredictTrafficWriteEfficient returns the exact slow-memory word traffic of
// SortWriteEfficient: ceil(n/(m/2)) full scans of the input, n stores total.
func PredictTrafficWriteEfficient(n, m int) (loads, stores int64) {
	if n <= 1 {
		return 0, 0
	}
	if n <= m {
		return int64(n), int64(n)
	}
	k := m / 2
	rounds := intmath.CeilDiv(n, k)
	return int64(rounds) * int64(n), int64(n)
}

// Strategy names which schedule an ω-aware sort chose.
type Strategy int

const (
	// StrategyMerge is the classical multiway mergesort (possibly with
	// ω-shrunk per-run buffers).
	StrategyMerge Strategy = iota
	// StrategySmallWrite is the O(n)-store selection schedule.
	StrategySmallWrite
)

func (s Strategy) String() string {
	switch s {
	case StrategyMerge:
		return "merge"
	case StrategySmallWrite:
		return "small-write"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MergeBuf returns the per-run buffer size the ω-aware merge uses: the
// classical 8-word buffers at ω ≤ 1, halved for every doubling of ω down to
// 1-word buffers. Smaller buffers mean more messages per word but a larger
// fanout m/buf - 1, hence fewer passes — exactly the trade worth making
// when each written word costs ω loaded ones.
func MergeBuf(omega float64) int {
	buf := defaultBuf
	for w := omega; w >= 2 && buf > 1; w /= 2 {
		buf /= 2
	}
	return buf
}

// PlanOmega returns the strategy and merge buffer size SortOmega picks for
// an n-word input, m words of fast memory, and write-cost ω: the ω-weighted
// word cost loads + ω·stores of the ω-tuned merge against the small-write
// selection schedule, ties going to the merge.
func PlanOmega(n, m int, omega float64) (Strategy, int) {
	buf := MergeBuf(omega)
	ml, ms := predictMergeTraffic(n, m, buf)
	sl, ss := PredictTrafficWriteEfficient(n, m)
	if float64(sl)+omega*float64(ss) < float64(ml)+omega*float64(ms) {
		return StrategySmallWrite, buf
	}
	return StrategyMerge, buf
}

// SortOmega sorts data ascending on a two-level machine with m fast-memory
// words under the (M, ω) cost model: it prices both schedules with the
// exact predicted traffic and runs the cheaper one. ω = 1 is bit-identical
// to Sort.
func SortOmega(h *machine.Hierarchy, m int, omega float64, data []float64) ([]float64, Strategy, error) {
	s, buf := PlanOmega(len(data), m, omega)
	if s == StrategySmallWrite {
		out, err := SortWriteEfficient(h, m, data)
		return out, s, err
	}
	out, err := sortMerge(h, m, buf, data)
	return out, s, err
}

// PredictTrafficOmega returns the exact slow-memory traffic of SortOmega
// along with the strategy it will choose.
func PredictTrafficOmega(n, m int, omega float64) (loads, stores int64, s Strategy) {
	s, buf := PlanOmega(n, m, omega)
	if s == StrategySmallWrite {
		loads, stores = PredictTrafficWriteEfficient(n, m)
		return loads, stores, s
	}
	loads, stores = predictMergeTraffic(n, m, buf)
	return loads, stores, s
}
