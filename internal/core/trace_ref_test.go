package core

import (
	"fmt"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/intmath"
)

// refTrace is the per-element reference for the Tracer's block path: one op
// per touch at Region.Addr of its element, in the touch order of the
// internal/matrix kernels, driven by a mirror of the blocked loop nests. It
// is slow and obviously in order, which is all it is for.
type refTrace struct {
	ops []access.Op
}

// refView is an operand block: rows x cols elements of reg from (r0,c0).
type refView struct {
	reg        access.Region
	r0, c0     int
	rows, cols int
}

func refRoot(reg access.Region, rows, cols int) refView {
	return refView{reg: reg, rows: rows, cols: cols}
}

// blk is block (i,j) of edge bs, clipped at the view's edge like Dense.Block
// calls in the drivers.
func (v refView) blk(i, j, bs int) refView {
	return refView{v.reg, v.r0 + i*bs, v.c0 + j*bs, min(bs, v.rows-i*bs), min(bs, v.cols-j*bs)}
}

func (r *refTrace) touch(v refView, i, j int, write bool) {
	r.ops = append(r.ops, access.Op{Addr: v.reg.Addr(v.r0+i, v.c0+j), Write: write})
}

// gemm mirrors gemmLevel at interface s (bs and wa fastest first); s < 0 is
// the kernel.
func (r *refTrace) gemm(bs []int, wa []bool, s int, c, a, b refView, mode gemmMode) {
	if s < 0 {
		r.gemmKernel(c, a, b, mode)
		return
	}
	n := bs[s]
	mb, lb, nb := intmath.CeilDiv(c.rows, n), intmath.CeilDiv(c.cols, n), intmath.CeilDiv(a.cols, n)
	step := func(i, j, k int) {
		bb := b.blk(k, j, n)
		if mode == modeSubABt || mode == modeSubABtLower {
			bb = b.blk(j, k, n)
		}
		sub := mode
		if mode == modeSubABtLower && i != j {
			sub = modeSubABt
		}
		r.gemm(bs, wa, s-1, c.blk(i, j, n), a.blk(i, k, n), bb, sub)
	}
	if wa[s] {
		for i := 0; i < mb; i++ {
			for j := 0; j < lb; j++ {
				for k := 0; k < nb; k++ {
					step(i, j, k)
				}
			}
		}
		return
	}
	for k := 0; k < nb; k++ {
		for i := 0; i < mb; i++ {
			for j := 0; j < lb; j++ {
				step(i, j, k)
			}
		}
	}
}

// gemmKernel is the touch order of matrix.MulAdd, MulSub, MulSubTrans and
// MulSubTransLower.
func (r *refTrace) gemmKernel(c, a, b refView, mode gemmMode) {
	trans := mode == modeSubABt || mode == modeSubABtLower
	for i := 0; i < c.rows; i++ {
		for j := 0; j < c.cols; j++ {
			if mode == modeSubABtLower && j > i {
				break
			}
			r.touch(c, i, j, false)
			for k := 0; k < a.cols; k++ {
				r.touch(a, i, k, false)
				if trans {
					r.touch(b, j, k, false)
				} else {
					r.touch(b, k, j, false)
				}
			}
			r.touch(c, i, j, true)
		}
	}
}

// trsm mirrors trsmLevel's write-avoiding order at one interface over the
// kernel's touch order (matrix.TRSMUpperLeft).
func (r *refTrace) trsm(bs int, t, b refView) {
	nb, mb := intmath.CeilDiv(t.rows, bs), intmath.CeilDiv(b.cols, bs)
	for j := 0; j < mb; j++ {
		for i := nb - 1; i >= 0; i-- {
			for k := i + 1; k < nb; k++ {
				r.gemmKernel(b.blk(i, j, bs), t.blk(i, k, bs), b.blk(k, j, bs), modeSubAB)
			}
			tt, bb := t.blk(i, i, bs), b.blk(i, j, bs)
			for jj := 0; jj < bb.cols; jj++ {
				for ii := tt.rows - 1; ii >= 0; ii-- {
					r.touch(bb, ii, jj, false)
					for k := ii + 1; k < tt.rows; k++ {
						r.touch(tt, ii, k, false)
						r.touch(bb, k, jj, false)
					}
					r.touch(tt, ii, ii, false)
					r.touch(bb, ii, jj, true)
				}
			}
		}
	}
}

// cholesky mirrors cholLeftLevel at one interface over the kernels' touch
// orders (matrix.CholeskyInPlace and TRSMLowerTransRight).
func (r *refTrace) cholesky(bs int, a refView) {
	nb := intmath.CeilDiv(a.rows, bs)
	for i := 0; i < nb; i++ {
		di := a.blk(i, i, bs)
		for k := 0; k < i; k++ {
			r.gemmKernel(di, a.blk(i, k, bs), a.blk(i, k, bs), modeSubABtLower)
		}
		for j := 0; j < di.rows; j++ {
			r.touch(di, j, j, false)
			for k := 0; k < j; k++ {
				r.touch(di, j, k, false)
				r.touch(di, j, k, false)
			}
			r.touch(di, j, j, true)
			for ii := j + 1; ii < di.rows; ii++ {
				r.touch(di, ii, j, false)
				for k := 0; k < j; k++ {
					r.touch(di, ii, k, false)
					r.touch(di, j, k, false)
				}
				r.touch(di, ii, j, true)
			}
		}
		for j := i + 1; j < nb; j++ {
			ji := a.blk(j, i, bs)
			for k := 0; k < i; k++ {
				r.gemmKernel(ji, a.blk(j, k, bs), a.blk(i, k, bs), modeSubABt)
			}
			for ii := 0; ii < ji.rows; ii++ {
				for jj := 0; jj < di.rows; jj++ {
					r.touch(ji, ii, jj, false)
					for k := 0; k < jj; k++ {
						r.touch(ji, ii, k, false)
						r.touch(di, jj, k, false)
					}
					r.touch(di, jj, jj, false)
					r.touch(ji, ii, jj, true)
				}
			}
		}
	}
}

// co is the cache-oblivious recursion, one op per touch.
func (r *refTrace) co(t *COMatMulTrace, ci, cj, ck, m, l, n int) {
	if m <= t.Base && l <= t.Base && n <= t.Base {
		r.gemmKernel(refView{t.C, ci, cj, m, l}, refView{t.A, ci, ck, m, n}, refView{t.B, ck, cj, n, l}, modeAddAB)
		return
	}
	switch {
	case m >= l && m >= n:
		h := m / 2
		r.co(t, ci, cj, ck, h, l, n)
		r.co(t, ci+h, cj, ck, m-h, l, n)
	case l >= n:
		h := l / 2
		r.co(t, ci, cj, ck, m, h, n)
		r.co(t, ci, cj+h, ck, m, l-h, n)
	default:
		h := n / 2
		r.co(t, ci, cj, ck, m, l, h)
		r.co(t, ci, cj, ck+h, m, l, n-h)
	}
}

// refMatMul is the reference stream of a MatMulTrace.
func refMatMul(t *MatMulTrace) []access.Op {
	var bs []int
	var wa []bool
	for i := len(t.Levels) - 1; i >= 0; i-- {
		bs = append(bs, t.Levels[i].Block)
		wa = append(wa, t.Levels[i].ContractionInner)
	}
	if len(bs) == 0 {
		bs, wa = []int{max(t.M, t.N, t.L, 1)}, []bool{true}
	}
	var r refTrace
	r.gemm(bs, wa, len(bs)-1, refRoot(t.C, t.M, t.L), refRoot(t.A, t.M, t.N), refRoot(t.B, t.N, t.L), modeAddAB)
	return r.ops
}

// sinkCase is one way of receiving a stream: through the block path of a
// BatchSink, or one Access per op.
var sinkCases = []struct {
	name string
	run  func(emit func(access.Sink)) []access.Op
}{
	{"BatchSink", func(emit func(access.Sink)) []access.Op {
		var r access.Recorder
		emit(&r)
		return r.Ops
	}},
	{"Sink", func(emit func(access.Sink)) []access.Op {
		var ops []access.Op
		emit(access.SinkFunc(func(addr uint64, write bool) {
			ops = append(ops, access.Op{Addr: addr, Write: write})
		}))
		return ops
	}},
}

// checkStream runs emit through every sink case and compares each stream
// with want, op for op. Every case must cross at least one block boundary.
func checkStream(t *testing.T, want []access.Op, emit func(access.Sink)) {
	t.Helper()
	if len(want) <= traceBlock {
		t.Fatalf("reference stream of %d ops stays inside one block", len(want))
	}
	for _, sc := range sinkCases {
		got := sc.run(emit)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: op %d = %+v, reference %+v", sc.name, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d ops, reference %d", sc.name, len(got), len(want))
		}
	}
}

func lv(block int, wa bool) TraceLevel { return TraceLevel{Block: block, ContractionInner: wa} }

// levelsName names a level list coarsest first, e.g. "b8WA-b4nonWA".
func levelsName(levels []TraceLevel) string {
	name := "kernel"
	for i, l := range levels {
		o := OrderNonWA
		if l.ContractionInner {
			o = OrderWA
		}
		if i == 0 {
			name = ""
		} else {
			name += "-"
		}
		name += fmt.Sprintf("b%d%v", l.Block, o)
	}
	return name
}

// The block path emits, op for op, the stream of the per-element reference:
// matmul with zero to three levels in write-avoiding and non-write-avoiding
// mixes, on ragged dims and blocks larger than a dim, plus a single-kernel
// dot product several blocks long.
func TestMatMulTraceMatchesReference(t *testing.T) {
	cases := []struct {
		m, n, l int
		levels  []TraceLevel
	}{
		{10, 7, 13, nil},
		{3, 300, 2, nil},
		{10, 7, 13, []TraceLevel{lv(4, true)}},
		{10, 7, 13, []TraceLevel{lv(4, false)}},
		{10, 7, 13, []TraceLevel{lv(16, true)}},
		{10, 7, 13, []TraceLevel{lv(8, true), lv(4, false)}},
		{16, 32, 16, []TraceLevel{lv(8, false), lv(2, true)}},
		{10, 7, 13, []TraceLevel{lv(12, true), lv(6, false), lv(3, false)}},
		{24, 20, 28, []TraceLevel{lv(12, false), lv(6, true), lv(3, true)}},
		{24, 20, 28, []TraceLevel{lv(12, true), lv(6, true), lv(3, false)}},
	}
	for _, c := range cases {
		tr := NewMatMulTrace(c.m, c.n, c.l, 64, c.levels...)
		t.Run(fmt.Sprintf("%dx%dx%d/%s", c.m, c.n, c.l, levelsName(c.levels)), func(t *testing.T) {
			checkStream(t, refMatMul(tr), tr.Run)
		})
	}
}

func TestTRSMTraceMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m, b int }{{16, 8, 4}, {10, 6, 4}, {7, 9, 8}} {
		tr := NewTRSMTrace(c.n, c.m, c.b, 64)
		var r refTrace
		r.trsm(c.b, refRoot(tr.T, c.n, c.n), refRoot(tr.B, c.n, c.m))
		t.Run(fmt.Sprintf("%dx%d/b%d", c.n, c.m, c.b), func(t *testing.T) { checkStream(t, r.ops, tr.Run) })
	}
}

func TestCholeskyTraceMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, b int }{{16, 4}, {10, 4}, {9, 16}} {
		tr := NewCholeskyTrace(c.n, c.b, 64)
		var r refTrace
		r.cholesky(c.b, refRoot(tr.A, c.n, c.n))
		t.Run(fmt.Sprintf("%d/b%d", c.n, c.b), func(t *testing.T) { checkStream(t, r.ops, tr.Run) })
	}
}

func TestCOMatMulTraceMatchesReference(t *testing.T) {
	for _, c := range []struct{ m, n, l, base int }{{13, 7, 11, 3}, {9, 17, 5, 4}, {11, 9, 7, 1}} {
		tr := NewCOMatMulTrace(c.m, c.n, c.l, c.base, 64)
		var r refTrace
		r.co(tr, 0, 0, 0, c.m, c.l, c.n)
		t.Run(fmt.Sprintf("%dx%dx%d/base%d", c.m, c.n, c.l, c.base), func(t *testing.T) { checkStream(t, r.ops, tr.Run) })
	}
}

// A base-case threshold below 1 would split a 1-wide dimension into 0 and 1
// forever; the constructor refuses it.
func TestCOMatMulTraceRejectsBaseBelowOne(t *testing.T) {
	for _, base := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCOMatMulTrace with base %d did not panic", base)
				}
			}()
			NewCOMatMulTrace(4, 4, 4, base, 64)
		}()
	}
}
