package core

import (
	"fmt"

	"writeavoid/internal/access"
	"writeavoid/internal/matrix"
)

// traceBlock is the number of accesses a Tracer gathers before it hands them
// to its sink: enough that the hand-off is a small share of each access, few
// enough that the block stays in the first-level cache.
const traceBlock = 256

// Tracer gives the counted algorithm drivers an element-granularity address
// stream: each root matrix is bound to an access.Region, block views are
// resolved back to root coordinates by pointer arithmetic on the shared
// backing slice, and every element read or write inside a base-case kernel
// is written as an access.Op into one reused block of traceBlock ops. A full
// block goes to the sink in one AccessBatch call when the sink is an
// access.BatchSink (cache.FALRU, access.Recorder), one Access per op
// otherwise; each kernel call hands over its tail before it returns, so the
// sink has the whole stream of every kernel that has run.
//
// A Plan with a non-nil Trace switches its base-case kernels to the traced
// twins below. They emit the accesses of the internal/matrix reference
// kernels in place of the arithmetic: no instruction order here pivots, so
// the stream does not depend on the values, and a traced plan leaves its
// operands as they are. The matmul twins emit the per-element i, j, k order
// of the paper's kernel (one C read, its k operand pairs, one C write); the
// compute kernels interleave four C elements of a row per pass over k, but
// every element gets exactly this arithmetic, so the trace is the kernel's
// access set per element in the kernel's summation order.
type Tracer struct {
	sink  access.Sink
	batch access.BatchSink // sink's block path, nil when it has none
	n     int              // ops pending in block; always < traceBlock between calls
	block [traceBlock]access.Op
	bound []traceBinding
}

type traceBinding struct {
	data []float64 // the root matrix's full backing slice
	cols int       // root stride (== Cols; roots must be tight)
	reg  access.Region
}

// NewTracer builds a tracer emitting into sink: an access.BatchSink such as
// a cache.FALRU or an access.Recorder takes whole blocks.
func NewTracer(sink access.Sink) *Tracer {
	t := &Tracer{sink: sink}
	t.batch, _ = sink.(access.BatchSink)
	return t
}

// Bind associates a root matrix with the address region its elements occupy.
// The matrix must be tight (Stride == Cols) and match the region's width.
// Views created from the root via Block resolve to the same region.
func (t *Tracer) Bind(m *matrix.Dense, reg access.Region) {
	if m.Stride != m.Cols {
		panic("core: Tracer.Bind requires a tight root matrix (Stride == Cols)")
	}
	if reg.Cols != m.Cols {
		panic(fmt.Sprintf("core: Tracer.Bind region width %d != matrix width %d", reg.Cols, m.Cols))
	}
	t.bound = append(t.bound, traceBinding{data: m.Data, cols: m.Cols, reg: reg})
}

// tracedView is one operand's address grid: the byte address of its element
// (0,0) and the steps to the next row and the next column. The kernels step
// addresses along rows and columns from it instead of recomputing each.
type tracedView struct {
	base, pitch, elem uint64
}

// regionView is the grid of reg's elements from (r0,c0) on.
func regionView(reg access.Region, r0, c0 int) tracedView {
	return tracedView{base: reg.Addr(r0, c0), pitch: uint64(reg.Cols) * reg.ElemSz, elem: reg.ElemSz}
}

// at is the byte address of element (i,j) of the view.
func (v tracedView) at(i, j int) uint64 {
	return v.base + uint64(i)*v.pitch + uint64(j)*v.elem
}

// view resolves a (possibly nested) block view back to its bound root.
// Dense.Block reslices the root's backing array with a full tail, so the
// view's offset into the root is the difference of slice lengths; the pointer
// comparison proves the candidate root really is this view's ancestor.
func (t *Tracer) view(v *matrix.Dense) tracedView {
	if len(v.Data) > 0 {
		for i := range t.bound {
			b := &t.bound[i]
			off := len(b.data) - len(v.Data)
			if off >= 0 && &b.data[off] == &v.Data[0] {
				return regionView(b.reg, off/b.cols, off%b.cols)
			}
		}
	}
	panic("core: traced kernel operand is not a view of any bound matrix")
}

// put appends one access to the block, handing the block on when it fills.
func (t *Tracer) put(addr uint64, write bool) {
	t.block[t.n] = access.Op{Addr: addr, Write: write}
	t.n++
	if t.n == traceBlock {
		t.flush()
	}
}

// dot appends the k operand reads of one dot product, a then b per term, with
// a stepping by da and b by db. It fills the block in runs that fit, so a dot
// product longer than the block comes out in order across hand-offs.
func (t *Tracer) dot(a, da, b, db uint64, k int) {
	for k > 0 {
		if traceBlock-t.n < 2 {
			t.flush()
		}
		run := min(k, (traceBlock-t.n)/2)
		for free := t.block[t.n : t.n+2*run]; len(free) >= 2; free = free[2:] {
			free[0] = access.Op{Addr: a}
			free[1] = access.Op{Addr: b}
			a += da
			b += db
		}
		t.n += 2 * run
		k -= run
	}
	if t.n == traceBlock {
		t.flush()
	}
}

// flush hands the pending ops to the sink.
func (t *Tracer) flush() {
	if t.n == 0 {
		return
	}
	ops := t.block[:t.n]
	t.n = 0
	if t.batch != nil {
		t.batch.AccessBatch(ops)
		return
	}
	for _, op := range ops {
		t.sink.Access(op.Addr, op.Write)
	}
}

// mul emits the stream of C op= A*op(B) for a rows×cols C and dot products
// of length k, in the paper's per-element i, j, k order, the summation order
// of matrix.MulAdd, MulSub, MulSubTrans and MulSubTransLower (which compute
// four elements per pass): per C element one read, the (A(i,p),
// op(B)(p,j)) pairs, one write. A steps along its row; op(B) is B stepped down its column, or
// with trans B^T, stepped along B's row j. With lower only the lower
// triangle of C (diagonal included) is visited.
func (t *Tracer) mul(c, a, b tracedView, rows, cols, k int, trans, lower bool) {
	bj, bk := b.elem, b.pitch // B(p,j): the next j is across, the next p down
	if trans {
		bj, bk = b.pitch, b.elem // B(j,p)
	}
	for i := 0; i < rows; i++ {
		n := cols
		if lower {
			n = min(i+1, cols)
		}
		ci, ai, bc := c.at(i, 0), a.at(i, 0), b.base
		for range n {
			t.put(ci, false)
			t.dot(ai, a.elem, bc, bk, k)
			t.put(ci, true)
			ci += c.elem
			bc += bj
		}
	}
	t.flush()
}

// gemm is the traced twin of the four matrix GEMM kernels on bound views;
// see mul.
func (t *Tracer) gemm(c, a, b *matrix.Dense, trans, lower bool) {
	t.mul(t.view(c), t.view(a), t.view(b), c.Rows, c.Cols, a.Cols, trans, lower)
}

// trsmUpperLeft is the traced twin of matrix.TRSMUpperLeft: back
// substitution over the columns of B, reading the diagonal entry just before
// each write.
func (t *Tracer) trsmUpperLeft(tm, b *matrix.Dense) {
	tt, tb := t.view(tm), t.view(b)
	n := tm.Rows
	for j := 0; j < b.Cols; j++ {
		for i := n - 1; i >= 0; i-- {
			bij := tb.at(i, j)
			t.put(bij, false)
			t.dot(tt.at(i, i+1), tt.elem, tb.at(i+1, j), tb.pitch, n-1-i)
			t.put(tt.at(i, i), false)
			t.put(bij, true)
		}
	}
	t.flush()
}

// trsmLowerTransRight is the traced twin of matrix.TRSMLowerTransRight:
// X*L^T = B row by row.
func (t *Tracer) trsmLowerTransRight(l, b *matrix.Dense) {
	tl, tb := t.view(l), t.view(b)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < l.Rows; j++ {
			bij := tb.at(i, j)
			t.put(bij, false)
			t.dot(tb.at(i, 0), tb.elem, tl.at(j, 0), tl.elem, j)
			t.put(tl.at(j, j), false)
			t.put(bij, true)
		}
	}
	t.flush()
}

// cholesky is the traced twin of matrix.CholeskyInPlace. The diagonal update
// reads A(j,k) twice per term (squaring it), exactly as the compute kernel
// does. The kernel's final zeroing of the strict upper triangle is not
// emitted: the factorization's access stream never touches the upper
// triangle, which is what keeps the Proposition 6.2 write-back count at the
// lower-triangle output size.
func (t *Tracer) cholesky(a *matrix.Dense) {
	ta := t.view(a)
	for j := 0; j < a.Rows; j++ {
		aj := ta.at(j, 0)
		t.put(ta.at(j, j), false)
		t.dot(aj, ta.elem, aj, ta.elem, j)
		t.put(ta.at(j, j), true)
		for i := j + 1; i < a.Rows; i++ {
			aij := ta.at(i, j)
			t.put(aij, false)
			t.dot(ta.at(i, 0), ta.elem, aj, ta.elem, j)
			t.put(aij, true)
		}
	}
	t.flush()
}
