package core

import (
	"writeavoid/internal/intmath"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// gemmMode distinguishes the three GEMM flavors the Section 4 algorithms
// need. All three share the same blocking structure and traffic counts.
type gemmMode int

const (
	modeAddAB       gemmMode = iota // C += A*B   (Algorithm 1)
	modeSubAB                       // C -= A*B   (TRSM updates)
	modeSubABt                      // C -= A*B^T (Cholesky SYRK/GEMM updates)
	modeSubABtLower                 // lower triangle of C -= A*B^T (Cholesky diagonal SYRK)
)

// MatMul computes C += A*B with the plan's blocking and loop order,
// computing the true product while driving the plan's hierarchy counters.
// For Order==OrderWA this is the paper's Algorithm 1 generalized to
// arbitrarily many levels.
func MatMul(p *Plan, c, a, b *matrix.Dense) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return errShape("MatMul", c, a, b)
	}
	if err := p.validate(c.Rows, c.Cols, a.Cols); err != nil {
		return err
	}
	gemmLevel(p, p.topInterface(), c, a, b, modeAddAB)
	return nil
}

// gemmLevel multiplies at recursion depth s (an interface index); s == -1 is
// the in-fast-memory kernel. Operand shapes per mode:
//
//	modeAddAB/modeSubAB: C(m,l) op A(m,n)*B(n,l), blocks B(k,j)
//	modeSubABt:          C(m,l) -= A(m,n)*B(l,n)^T, blocks B(j,k)
func gemmLevel(p *Plan, s int, c, a, b *matrix.Dense, mode gemmMode) {
	if s < 0 {
		gemmKernel(p, c, a, b, mode)
		return
	}
	bs := p.BlockSizes[s]
	m, l, n := c.Rows, c.Cols, a.Cols
	mb, lb, nb := intmath.CeilDiv(m, bs), intmath.CeilDiv(l, bs), intmath.CeilDiv(n, bs)

	mark := p.marking(s)
	switch p.orderAt(s) {
	case OrderWA:
		// Algorithm 1: the contraction loop k is innermost, so each C
		// block is loaded and stored exactly once.
		for i := 0; i < mb; i++ {
			for j := 0; j < lb; j++ {
				if mark {
					p.H.Begin(cBlockLabels.Get(i, j))
				}
				cb := c.Block(i*bs, j*bs, min(bs, m-i*bs), min(bs, l-j*bs))
				p.H.Load(s, words(cb))
				for k := 0; k < nb; k++ {
					gemmStep(p, s, c, a, b, mode, i, j, k)
				}
				p.H.Store(s, words(cb))
				if mark {
					p.H.End()
				}
			}
		}
	case OrderNonWA:
		// Same blocked algorithm with k outermost: still CA, but each
		// C block is re-loaded and re-stored n/b times.
		for k := 0; k < nb; k++ {
			if mark {
				p.H.Begin(kLabels.Get(k))
			}
			for i := 0; i < mb; i++ {
				for j := 0; j < lb; j++ {
					cb := c.Block(i*bs, j*bs, min(bs, m-i*bs), min(bs, l-j*bs))
					p.H.Load(s, words(cb))
					gemmStep(p, s, c, a, b, mode, i, j, k)
					p.H.Store(s, words(cb))
				}
			}
			if mark {
				p.H.End()
			}
		}
	}
}

// gemmStep is one block step of gemmLevel at interface s: it stages block
// (i,k) of A and block (k,j) of B (block (j,k) in the transposed modes)
// across s and recurses into block (i,j) of C. Block inlines, so the three
// views stay in this frame. It cuts the C block itself rather than take
// gemmLevel's: a view made inside a loop and passed down the recursion
// escapes to the heap.
func gemmStep(p *Plan, s int, c, a, b *matrix.Dense, mode gemmMode, i, j, k int) {
	bs := p.BlockSizes[s]
	cb := c.Block(i*bs, j*bs, min(bs, c.Rows-i*bs), min(bs, c.Cols-j*bs))
	ab := a.Block(i*bs, k*bs, min(bs, a.Rows-i*bs), min(bs, a.Cols-k*bs))
	var bb *matrix.Dense
	if mode == modeSubABt || mode == modeSubABtLower {
		bb = b.Block(j*bs, k*bs, min(bs, b.Rows-j*bs), min(bs, b.Cols-k*bs))
	} else {
		bb = b.Block(k*bs, j*bs, min(bs, b.Rows-k*bs), min(bs, b.Cols-j*bs))
	}
	// The triangular mode keeps the full block loops (so the staged word
	// counts are identical to modeSubABt at every interface) and narrows
	// to the triangle only for diagonal sub-blocks of C.
	sub := mode
	if mode == modeSubABtLower && i != j {
		sub = modeSubABt
	}
	p.H.Load(s, words(ab))
	p.H.Load(s, words(bb))
	gemmLevel(p, s-1, cb, ab, bb, sub)
	p.H.Discard(s, words(ab))
	p.H.Discard(s, words(bb))
}

// gemmKernel is the base case: the operands are resident in the fastest
// level, so only arithmetic happens, or, when the plan carries a Tracer, the
// per-element trace emission that stands in for it.
func gemmKernel(p *Plan, c, a, b *matrix.Dense, mode gemmMode) {
	if tr := p.Trace; tr != nil {
		tr.gemm(c, a, b, mode == modeSubABt || mode == modeSubABtLower, mode == modeSubABtLower)
	} else {
		switch mode {
		case modeAddAB:
			matrix.MulAdd(c, a, b)
		case modeSubAB:
			matrix.MulSub(c, a, b)
		case modeSubABt:
			matrix.MulSubTrans(c, a, b)
		case modeSubABtLower:
			matrix.MulSubTransLower(c, a, b)
		}
	}
	if mode == modeSubABtLower {
		// 2 flops per term over the n(n+1)/2 triangle elements.
		p.H.Flops(int64(c.Rows) * int64(c.Rows+1) * int64(a.Cols))
	} else {
		p.H.Flops(2 * int64(c.Rows) * int64(c.Cols) * int64(a.Cols))
	}
}

// MatMulSub computes C -= A*B with the same blocking and counting as MatMul.
func MatMulSub(p *Plan, c, a, b *matrix.Dense) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return errShape("MatMulSub", c, a, b)
	}
	if err := p.validate(c.Rows, c.Cols, a.Cols); err != nil {
		return err
	}
	gemmLevel(p, p.topInterface(), c, a, b, modeSubAB)
	return nil
}

// SYRK computes C -= A*A^T (the symmetric rank-k update Cholesky's diagonal
// path uses), blocked and counted like MatMul; both triangles of C are
// updated.
func SYRK(p *Plan, c, a *matrix.Dense) error {
	if c.Rows != a.Rows || c.Cols != a.Rows {
		return errShape("SYRK", c, a, a)
	}
	if err := p.validate(c.Rows, a.Cols); err != nil {
		return err
	}
	gemmLevel(p, p.topInterface(), c, a, a, modeSubABt)
	return nil
}

// MatMulNaive computes C += A*B with the unblocked three-nested-loop
// algorithm the paper's introduction dismisses: it minimizes writes to slow
// memory (the output is written once) but maximizes reads (it is not CA).
// Each dot product streams a row of A and a column of B through fast memory.
func MatMulNaive(h2 *machine.Hierarchy, c, a, b *matrix.Dense) {
	m, l, n := c.Rows, c.Cols, a.Cols
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			h2.Init(0, 1) // accumulator for C(i,j) (R2 residency)
			s := c.At(i, j)
			for k := 0; k < n; k++ {
				h2.Load(0, 2) // A(i,k) and B(k,j)
				s += a.At(i, k) * b.At(k, j)
				h2.Discard(0, 2)
			}
			c.Set(i, j, s)
			h2.Flops(2 * int64(n))
			h2.Store(0, 1)
		}
	}
}

// MatMulCounts is the exact traffic prediction for the blocked GEMM at every
// interface of a plan, matching gemmLevel word for word. Top-level dims are
// (m x n) * (n x l); all dims must be multiples of the coarsest block, and
// block sizes must nest evenly (the same preconditions as MatMul).
type MatMulCounts struct {
	LoadWords  []int64 // per interface
	StoreWords []int64
	LoadMsgs   []int64
	StoreMsgs  []int64
}

// PredictMatMul returns the closed-form counts for OrderWA. For the top
// interface t with block B = bs[t]:
//
//	loads  = m*l + 2*m*n*l/B      stores = m*l
//
// and for each finer interface s < t, whose level is entered once per
// bs[s+1]-cube:
//
//	loads  = m*n*l/bs[s+1] + 2*m*n*l/bs[s]    stores = m*n*l/bs[s+1]
func PredictMatMul(m, n, l int, blockSizes []int) MatMulCounts {
	t := len(blockSizes) - 1
	mc := MatMulCounts{
		LoadWords:  make([]int64, t+1),
		StoreWords: make([]int64, t+1),
		LoadMsgs:   make([]int64, t+1),
		StoreMsgs:  make([]int64, t+1),
	}
	M, N, L := int64(m), int64(n), int64(l)
	for s := t; s >= 0; s-- {
		b := int64(blockSizes[s])
		if s == t {
			mc.LoadWords[s] = M*L + 2*M*N*L/b
			mc.StoreWords[s] = M * L
			mc.LoadMsgs[s] = (M / b) * (L / b) * (1 + 2*(N/b))
			mc.StoreMsgs[s] = (M / b) * (L / b)
		} else {
			B := int64(blockSizes[s+1]) // cube edge at this depth
			calls := M * N * L / (B * B * B)
			perCallLoadW := B*B + 2*B*B*B/b
			perCallLoadM := (B / b) * (B / b) * (1 + 2*(B/b))
			mc.LoadWords[s] = calls * perCallLoadW
			mc.StoreWords[s] = calls * B * B
			mc.LoadMsgs[s] = calls * perCallLoadM
			mc.StoreMsgs[s] = calls * (B / b) * (B / b)
		}
	}
	return mc
}

// PredictMatMulNonWA returns the top-interface counts for OrderNonWA, where
// every C block moves once per contraction step:
//
//	loads = m*n*l/B (C) + 2*m*n*l/B (A,B)    stores = m*n*l/B
func PredictMatMulNonWA(m, n, l, blockSize int) (loadWords, storeWords int64) {
	M, N, L, b := int64(m), int64(n), int64(l), int64(blockSize)
	return 3 * M * N * L / b, M * N * L / b
}

func words(m *matrix.Dense) int64 { return int64(m.Rows) * int64(m.Cols) }

func errShape(op string, c, a, b *matrix.Dense) error {
	return &ShapeError{Op: op, CR: c.Rows, CC: c.Cols, AR: a.Rows, AC: a.Cols, BR: b.Rows, BC: b.Cols}
}

// ShapeError reports incompatible operand shapes.
type ShapeError struct {
	Op                     string
	CR, CC, AR, AC, BR, BC int
}

func (e *ShapeError) Error() string {
	return e.Op + ": incompatible shapes"
}
