package extsort

import (
	"container/heap"
	"math"
	"sort"

	"writeavoid/internal/intmath"
	"writeavoid/internal/machine"
)

// Reference implementations: the merge sort and the small-write sort as they
// were on container/heap, kept verbatim (minus the NaN check) as the slow
// reference the typed heaps are checked against bit for bit.

func refSortMerge(h *machine.Hierarchy, m, buf int, data []float64) []float64 {
	n := len(data)
	out := append([]float64(nil), data...)
	if n <= 1 {
		return out
	}
	if n <= m {
		h.Load(0, int64(n))
		sort.Float64s(out)
		h.Flops(int64(n) * intmath.Log2Ceil(n))
		h.Store(0, int64(n))
		return out
	}
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
	fanout := m/buf - 1
	if fanout < 2 {
		fanout = 2
	}
	scratch := make([]float64, n)
	dst := scratch
	other := out
	for len(runs) > 1 {
		var next []run
		for g := 0; g < len(runs); g += fanout {
			ge := min(len(runs), g+fanout)
			if ge-g == 1 {
				next = append(next, runs[g])
				continue
			}
			refMergeRuns(h, dst, runs[g:ge], buf)
			next = append(next, run{runs[g].lo, runs[ge-1].hi, dst})
		}
		runs = next
		dst, other = other, dst
	}
	return runs[0].src
}

func refMergeRuns(h *machine.Hierarchy, dst []float64, runs []run, buf int) {
	cur := make([]cursor, len(runs))
	hp := &refMergeHeap{cur: cur}
	for i, r := range runs {
		cur[i] = cursor{src: r.src, pos: r.lo, hi: r.hi}
		if r.lo < r.hi {
			first := min(buf, r.hi-r.lo)
			h.Load(0, int64(first))
			cur[i].buffered = first
			heap.Push(hp, refMergeItem{run: i, idx: r.lo})
		}
	}
	outBase := runs[0].lo
	pending := 0
	for hp.Len() > 0 {
		it := heap.Pop(hp).(refMergeItem)
		c := &cur[it.run]
		dst[outBase] = c.src[it.idx]
		outBase++
		pending++
		h.Flops(int64(intmath.Log2Ceil(len(runs))))
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
			heap.Push(hp, refMergeItem{run: it.run, idx: c.pos})
		}
	}
	if pending > 0 {
		h.Store(0, int64(pending))
	}
}

type refMergeItem struct {
	run, idx int
}

type refMergeHeap struct {
	cur   []cursor
	items []refMergeItem
}

func (h *refMergeHeap) at(i int) float64 { it := h.items[i]; return h.cur[it.run].src[it.idx] }

func (h *refMergeHeap) Len() int           { return len(h.items) }
func (h *refMergeHeap) Less(i, j int) bool { return h.at(i) < h.at(j) }
func (h *refMergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refMergeHeap) Push(x interface{}) { h.items = append(h.items, x.(refMergeItem)) }
func (h *refMergeHeap) Pop() interface{} {
	old := h.items
	x := old[len(old)-1]
	h.items = old[:len(old)-1]
	return x
}

type refCandHeap []cand

func (h refCandHeap) Len() int            { return len(h) }
func (h refCandHeap) Less(i, j int) bool  { return candLess(h[j], h[i]) }
func (h refCandHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refCandHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *refCandHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refSortWriteEfficient(h *machine.Hierarchy, m int, data []float64) []float64 {
	n := len(data)
	if n <= 1 {
		return append([]float64(nil), data...)
	}
	if n <= m {
		out := append([]float64(nil), data...)
		h.Load(0, int64(n))
		sort.Float64s(out)
		h.Flops(int64(n) * intmath.Log2Ceil(n))
		h.Store(0, int64(n))
		return out
	}
	k := m / 2
	c := m - k
	res := make([]float64, 0, n)
	threshold := cand{math.Inf(-1), -1}
	hp := refCandHeap(make([]cand, 0, k))
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
					continue
				}
				if len(hp) < k {
					heap.Push(&hp, x)
					kept++
				} else if candLess(x, hp[0]) {
					h.Discard(0, 1)
					hp[0] = x
					heap.Fix(&hp, 0)
					kept++
				}
			}
			h.Flops(int64(sz) * intmath.Log2Ceil(k))
			if sz-kept > 0 {
				h.Discard(0, int64(sz-kept))
			}
		}
		hk := len(hp)
		tmp := make([]cand, hk)
		for i := hk - 1; i >= 0; i-- {
			tmp[i] = heap.Pop(&hp).(cand)
		}
		if hk > 1 {
			h.Flops(int64(hk) * intmath.Log2Ceil(hk))
		}
		for _, cd := range tmp {
			res = append(res, cd.v)
		}
		threshold = tmp[hk-1]
		h.Store(0, int64(hk))
	}
	return res
}
