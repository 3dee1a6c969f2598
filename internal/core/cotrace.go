package core

import (
	"fmt"

	"writeavoid/internal/access"
	"writeavoid/internal/intmath"
)

// COMatMulTrace is the cache-oblivious recursive order of Figure 2a (Frigo et
// al.): split the largest of the three dimensions in half, recurse, and run
// the element kernel below a base threshold. Splitting the contraction
// dimension executes the two halves in sequence on the same C block. Unlike
// the blocked traces, this order has no counted-driver twin (there is no
// explicit staging to count), so it remains a standalone emitter. Its base
// case is the Tracer's C += A*B kernel stream, written into the same block.
type COMatMulTrace struct {
	M, N, L int
	Base    int // base-case threshold; at least 1, or the halving never ends
	A, B, C access.Region
}

// NewCOMatMulTrace lays out the operands in a fresh address space. It
// panics if base < 1.
func NewCOMatMulTrace(m, n, l, base, lineBytes int) *COMatMulTrace {
	lay := access.NewLayout(uint64(lineBytes))
	t := &COMatMulTrace{
		M: m, N: n, L: l, Base: base,
		A: lay.NewRegion(m, n),
		B: lay.NewRegion(n, l),
		C: lay.NewRegion(m, l),
	}
	t.checkBase()
	return t
}

// checkBase panics on a base-case threshold the recursion cannot reach: at
// Base 0, a 1-wide dimension splits into 0 and 1 and recurses on itself.
func (t *COMatMulTrace) checkBase() {
	if t.Base < 1 {
		panic(fmt.Sprintf("core: COMatMulTrace base %d < 1", t.Base))
	}
}

// Run emits the access stream.
func (t *COMatMulTrace) Run(sink access.Sink) {
	t.checkBase()
	t.rec(NewTracer(sink), 0, 0, 0, t.M, t.L, t.N)
}

func (t *COMatMulTrace) rec(tr *Tracer, ci, cj, ck, m, l, n int) {
	if m <= t.Base && l <= t.Base && n <= t.Base {
		tr.mul(regionView(t.C, ci, cj), regionView(t.A, ci, ck), regionView(t.B, ck, cj), m, l, n, false, false)
		return
	}
	switch {
	case m >= l && m >= n:
		h := m / 2
		t.rec(tr, ci, cj, ck, h, l, n)
		t.rec(tr, ci+h, cj, ck, m-h, l, n)
	case l >= n:
		h := l / 2
		t.rec(tr, ci, cj, ck, m, h, n)
		t.rec(tr, ci, cj+h, ck, m, l-h, n)
	default:
		h := n / 2
		t.rec(tr, ci, cj, ck, m, l, h)
		t.rec(tr, ci, cj, ck+h, m, l, n-h)
	}
}

// IdealCacheMisses is the Frigo et al. ideal-cache miss estimate for the
// cache-oblivious multiplication — the "Misses on Ideal Cache" reference line
// of Figure 2a — in cache lines:
//
//	( m*n*ceil(l/s) + l*n*ceil(m/s) + l*m*ceil(n/s) ) * elemBytes/lineBytes
//
// with s = sqrt(M/(3*elemBytes)) the largest square tile edge fitting in a
// cache of M bytes.
func IdealCacheMisses(l, m, n int, cacheBytes, lineBytes int) int64 {
	s := intmath.Isqrt(int64(cacheBytes) / (3 * 8))
	if s < 1 {
		s = 1
	}
	ceil := func(a int) int64 { return int64((a + s - 1) / s) }
	elems := int64(m)*int64(n)*ceil(l) + int64(l)*int64(n)*ceil(m) + int64(l)*int64(m)*ceil(n)
	return elems * 8 / int64(lineBytes)
}
