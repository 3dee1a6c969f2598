// Package strassen implements Strassen's matrix multiplication over the
// explicit two-level machine model, together with its CDAG, to validate
// Corollary 3 of "Write-Avoiding Algorithms" (Carson et al., 2015): the
// recursive temporaries force the number of writes to slow memory to stay a
// constant fraction of total traffic, so no write-avoiding reordering exists.
package strassen

import (
	"fmt"

	"writeavoid/internal/cdag"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// Multiply computes C = A*B (n-by-n, n a power of two) with Strassen's
// algorithm on a two-level machine whose fast memory holds m words. The base
// case switches to the classical kernel when three blocks fit in fast
// memory. Intermediate sums and the seven products are materialized in slow
// memory, as any out-of-core Strassen must once n^2 exceeds m.
func Multiply(h *machine.Hierarchy, m int64, a, b *matrix.Dense) (*matrix.Dense, error) {
	return multiply(h, m, a, b, rec)
}

// step is one recursion scheme: Strassen's rec or winogradRec.
type step func(h *machine.Hierarchy, m int64, base int, st stack, c, a, b *matrix.Dense)

// multiply checks the operands, picks the base-case size for m and runs the
// recursion with one scratch stack for the whole call.
func multiply(h *machine.Hierarchy, m int64, a, b *matrix.Dense, run step) (*matrix.Dense, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, fmt.Errorf("strassen: need square operands, got %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("strassen: n=%d not a power of two", n)
	}
	base := 1
	for int64(3*(base*2)*(base*2)) <= m {
		base *= 2
	}
	c := matrix.New(n, n)
	run(h, m, base, newStack(n, base), c, a, b)
	return c, nil
}

// temps is how many half-size temporaries one recursion level holds: 10
// encoding sums and 7 products for Strassen, 8 sums, 7 products and 2
// decoding partial sums for Winograd.
const temps = 17

// stack is the scratch of one multiplication. A level above the base case
// takes its temps half-size temporaries off the bottom and passes the rest
// to its seven products, which run one after another and so reuse the same
// words: the stack holds one level's temporaries per depth. Every
// temporary is written in full before it is read, so none is zeroed.
type stack []float64

func newStack(n, base int) stack {
	words := 0
	for ; n > base; n /= 2 {
		words += temps * (n / 2) * (n / 2)
	}
	return make(stack, words)
}

// take carves len(t) tight half x half matrices off the bottom of st into t
// and returns the rest of the stack.
func (st stack) take(t []matrix.Dense, half int) stack {
	hh := half * half
	for i := range t {
		t[i] = matrix.Dense{Rows: half, Cols: half, Stride: half, Data: st[i*hh : (i+1)*hh]}
	}
	return st[len(t)*hh:]
}

// leaf is the base case both recursions share: the classical kernel on
// blocks resident in fast memory.
func leaf(h *machine.Hierarchy, c, a, b *matrix.Dense) {
	n := a.Rows
	h.Load(0, 2*int64(n)*int64(n))
	h.Init(0, int64(n)*int64(n))
	c.Zero()
	matrix.MulAdd(c, a, b)
	h.Flops(2 * int64(n) * int64(n) * int64(n))
	h.Store(0, int64(n)*int64(n))
	h.Discard(0, 2*int64(n)*int64(n))
}

func rec(h *machine.Hierarchy, m int64, base int, st stack, c, a, b *matrix.Dense) {
	n := a.Rows
	if n <= base {
		leaf(h, c, a, b)
		return
	}
	half := n / 2
	q := func(x *matrix.Dense, i, j int) *matrix.Dense { return x.Block(i*half, j*half, half, half) }
	a11, a12, a21, a22 := q(a, 0, 0), q(a, 0, 1), q(a, 1, 0), q(a, 1, 1)
	b11, b12, b21, b22 := q(b, 0, 0), q(b, 0, 1), q(b, 1, 0), q(b, 1, 1)
	c11, c12, c21, c22 := q(c, 0, 0), q(c, 0, 1), q(c, 1, 0), q(c, 1, 1)

	var t [temps]matrix.Dense
	st = st.take(t[:], half)
	// Encoding sums (all written to slow memory as streams).
	s1, s2, s3, s4, s5 := &t[0], &t[1], &t[2], &t[3], &t[4]
	t1, t2, t3, t4, t5 := &t[5], &t[6], &t[7], &t[8], &t[9]
	streamBinary(h, m, s1, a11, a22, +1) // S1 = A11+A22
	streamBinary(h, m, s2, a21, a22, +1) // S2 = A21+A22
	streamBinary(h, m, s3, a11, a12, +1) // S3 = A11+A12
	streamBinary(h, m, s4, a21, a11, -1) // S4 = A21-A11
	streamBinary(h, m, s5, a12, a22, -1) // S5 = A12-A22
	streamBinary(h, m, t1, b11, b22, +1) // T1 = B11+B22
	streamBinary(h, m, t2, b12, b22, -1) // T2 = B12-B22
	streamBinary(h, m, t3, b21, b11, -1) // T3 = B21-B11
	streamBinary(h, m, t4, b11, b12, +1) // T4 = B11+B12
	streamBinary(h, m, t5, b21, b22, +1) // T5 = B21+B22

	m1, m2, m3, m4, m5, m6, m7 := &t[10], &t[11], &t[12], &t[13], &t[14], &t[15], &t[16]
	rec(h, m, base, st, m1, s1, t1)  // M1 = (A11+A22)(B11+B22)
	rec(h, m, base, st, m2, s2, b11) // M2 = (A21+A22)B11
	rec(h, m, base, st, m3, a11, t2) // M3 = A11(B12-B22)
	rec(h, m, base, st, m4, a22, t3) // M4 = A22(B21-B11)
	rec(h, m, base, st, m5, s3, b22) // M5 = (A11+A12)B22
	rec(h, m, base, st, m6, s4, t4)  // M6 = (A21-A11)(B11+B12)
	rec(h, m, base, st, m7, s5, t5)  // M7 = (A12-A22)(B21+B22)

	// Decoding (the paper's Dec_C subgraph).
	streamBinary(h, m, c11, m1, m4, +1) // C11 = M1+M4
	streamAccum(h, m, c11, m5, -1)      //     - M5
	streamAccum(h, m, c11, m7, +1)      //     + M7
	streamBinary(h, m, c12, m3, m5, +1) // C12 = M3+M5
	streamBinary(h, m, c21, m2, m4, +1) // C21 = M2+M4
	streamBinary(h, m, c22, m1, m2, -1) // C22 = M1-M2
	streamAccum(h, m, c22, m3, +1)      //     + M3
	streamAccum(h, m, c22, m6, +1)      //     + M6
}

// streamChunk is the words a stream moves per chunk: three chunks (two
// operands and the result) fill fast memory.
func streamChunk(m int64) int { return max(1, int(m/3)) }

// streamBinary computes dst = x + sign*y elementwise, streaming chunks
// through fast memory: per chunk of c words, 2c loads and c stores. A chunk
// is c consecutive elements in row-major order, worked row piece by row
// piece.
func streamBinary(h *machine.Hierarchy, m int64, dst, x, y *matrix.Dense, sign float64) {
	chunk := streamChunk(m)
	cols := dst.Cols
	total := dst.Rows * cols
	for off := 0; off < total; off += chunk {
		cw := min(chunk, total-off)
		h.Load(0, 2*int64(cw))
		h.Init(0, int64(cw))
		for e := off; e < off+cw; {
			i, j := e/cols, e%cols
			w := min(cols-j, off+cw-e)
			d := dst.Data[i*dst.Stride+j:][:w]
			xs := x.Data[i*x.Stride+j:][:w]
			ys := y.Data[i*y.Stride+j:][:w]
			for k := range d {
				d[k] = xs[k] + sign*ys[k]
			}
			e += w
		}
		h.Flops(int64(cw))
		h.Store(0, int64(cw))
		h.Discard(0, 2*int64(cw))
	}
}

// streamAccum computes dst += sign*y elementwise with the same streaming
// traffic pattern (dst is both read and written).
func streamAccum(h *machine.Hierarchy, m int64, dst, y *matrix.Dense, sign float64) {
	chunk := streamChunk(m)
	cols := dst.Cols
	total := dst.Rows * cols
	for off := 0; off < total; off += chunk {
		cw := min(chunk, total-off)
		h.Load(0, 2*int64(cw))
		for e := off; e < off+cw; {
			i, j := e/cols, e%cols
			w := min(cols-j, off+cw-e)
			d := dst.Data[i*dst.Stride+j:][:w]
			ys := y.Data[i*y.Stride+j:][:w]
			for k := range d {
				d[k] += sign * ys[k]
			}
			e += w
		}
		h.Flops(int64(cw))
		h.Store(0, int64(cw))
		h.Discard(0, int64(cw))
	}
}

// Subgraph tags for the CDAG.
const (
	// TagEncode marks the pre-product addition vertices (Enc_A/Enc_B).
	TagEncode uint8 = 1
	// TagDecC marks the scalar products and their descendants — the
	// paper's Dec_C subgraph, whose out-degree bound gives Corollary 3.
	TagDecC uint8 = 2
)

// BuildCDAG constructs the CDAG of Strassen's algorithm run fully
// recursively (base case n=1) on n-by-n matrices.
func BuildCDAG(n int) *cdag.Graph {
	if n&(n-1) != 0 || n == 0 {
		panic("strassen: CDAG size must be a power of two")
	}
	g := cdag.New()
	aIDs := make([]int, n*n)
	bIDs := make([]int, n*n)
	for i := range aIDs {
		aIDs[i] = g.AddVertex(cdag.Input)
	}
	for i := range bIDs {
		bIDs[i] = g.AddVertex(cdag.Input)
	}
	// Outputs are the returned C vertices; they are identifiable as the
	// Dec_C-tagged vertices of out-degree 0, which is what the tests use.
	cdagRec(g, aIDs, bIDs, n)
	return g
}

// cdagRec returns the vertex ids of C = A*B for the sub-problem.
func cdagRec(g *cdag.Graph, aIDs, bIDs []int, n int) []int {
	if n == 1 {
		v := g.AddTagged(cdag.Intermediate, TagDecC)
		g.AddEdge(aIDs[0], v)
		g.AddEdge(bIDs[0], v)
		return []int{v}
	}
	half := n / 2
	quad := func(ids []int, qi, qj int) []int {
		out := make([]int, half*half)
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				out[i*half+j] = ids[(qi*half+i)*n+(qj*half+j)]
			}
		}
		return out
	}
	add := func(x, y []int, tag uint8) []int {
		out := make([]int, len(x))
		for i := range x {
			v := g.AddTagged(cdag.Intermediate, tag)
			g.AddEdge(x[i], v)
			g.AddEdge(y[i], v)
			out[i] = v
		}
		return out
	}
	a11, a12, a21, a22 := quad(aIDs, 0, 0), quad(aIDs, 0, 1), quad(aIDs, 1, 0), quad(aIDs, 1, 1)
	b11, b12, b21, b22 := quad(bIDs, 0, 0), quad(bIDs, 0, 1), quad(bIDs, 1, 0), quad(bIDs, 1, 1)

	m1 := cdagRec(g, add(a11, a22, TagEncode), add(b11, b22, TagEncode), half)
	m2 := cdagRec(g, add(a21, a22, TagEncode), b11, half)
	m3 := cdagRec(g, a11, add(b12, b22, TagEncode), half)
	m4 := cdagRec(g, a22, add(b21, b11, TagEncode), half)
	m5 := cdagRec(g, add(a11, a12, TagEncode), b22, half)
	m6 := cdagRec(g, add(a21, a11, TagEncode), add(b11, b12, TagEncode), half)
	m7 := cdagRec(g, add(a12, a22, TagEncode), add(b21, b22, TagEncode), half)

	c11 := add(add(m1, m4, TagDecC), add(m5, m7, TagDecC), TagDecC) // (M1+M4)+(−M5+M7) signs irrelevant for the DAG
	c12 := add(m3, m5, TagDecC)
	c21 := add(m2, m4, TagDecC)
	c22 := add(add(m1, m2, TagDecC), add(m3, m6, TagDecC), TagDecC)

	out := make([]int, n*n)
	place := func(ids []int, qi, qj int) {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				out[(qi*half+i)*n+(qj*half+j)] = ids[i*half+j]
			}
		}
	}
	place(c11, 0, 0)
	place(c12, 0, 1)
	place(c21, 1, 0)
	place(c22, 1, 1)
	return out
}
