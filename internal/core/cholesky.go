package core

import (
	"fmt"

	"writeavoid/internal/intmath"

	"writeavoid/internal/matrix"
)

// Cholesky factors the SPD matrix A in place into its lower-triangular
// Cholesky factor (A = L*L^T; the strict upper triangle is left untouched,
// mirroring the paper's "only lower triangle of A is accessed").
//
// OrderWA is the paper's left-looking Algorithm 3: each block column of L is
// completely computed by reading the blocks to its left and is written to
// slow memory exactly once, giving ~n^2/2 writes. OrderNonWA is the
// right-looking variant, which updates the whole trailing Schur complement
// after each block column and therefore re-writes every trailing block per
// step, for Θ(n^3/b) writes.
func Cholesky(p *Plan, a *matrix.Dense) error {
	if a.Rows != a.Cols {
		return errShape("Cholesky", a, a, a)
	}
	if err := p.validate(a.Rows); err != nil {
		return err
	}
	switch p.Order {
	case OrderWA:
		return cholLeftLevel(p, p.topInterface(), a)
	default:
		return cholRightLevel(p, p.topInterface(), a)
	}
}

// triWords is the number of words in the lower triangle (incl. diagonal) of
// a b-by-b block; the paper's ".5 b^2".
func triWords(b int) int64 { return int64(b) * int64(b+1) / 2 }

func cholLeftLevel(p *Plan, s int, a *matrix.Dense) error {
	if s < 0 {
		if err := cholKernel(p, a); err != nil {
			return err
		}
		n := int64(a.Rows)
		p.H.Flops(n * n * n / 3)
		return nil
	}
	bs := p.BlockSizes[s]
	n := a.Rows
	nb := intmath.CeilDiv(n, bs)
	blk := func(i, k int) *matrix.Dense {
		return a.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}

	mark := p.marking(s)
	for i := 0; i < nb; i++ {
		if mark {
			p.H.Begin(panelLabels.Get(i))
			p.H.Begin("factor")
		}
		// Diagonal block: load the lower half, subtract the row of
		// outer products to its left, factor, store the lower half.
		di := blk(i, i)
		p.H.Load(s, triWords(di.Rows))
		for k := 0; k < i; k++ {
			ak := blk(i, k)
			p.H.Load(s, words(ak))
			// A(i,i) -= A(i,k)*A(i,k)^T (SYRK, lower triangle only: the
			// factorization never reads above the diagonal)
			gemmLevel(p, s-1, di, ak, ak, modeSubABtLower)
			p.H.Discard(s, words(ak))
		}
		if err := cholLeftLevel(p, s-1, di); err != nil {
			return fmt.Errorf("core: Cholesky pivot block %d: %w", i, err)
		}
		p.H.Store(s, triWords(di.Rows))
		if mark {
			p.H.End()
			p.H.Begin("trsm")
		}

		// Off-diagonal blocks of block column i, fully computed
		// left-looking and stored once each.
		for j := i + 1; j < nb; j++ {
			ji := blk(j, i)
			p.H.Load(s, words(ji))
			for k := 0; k < i; k++ {
				aik, ajk := blk(i, k), blk(j, k)
				p.H.Load(s, words(aik))
				p.H.Load(s, words(ajk))
				// A(j,i) -= A(j,k)*A(i,k)^T
				gemmLevel(p, s-1, ji, ajk, aik, modeSubABt)
				p.H.Discard(s, words(aik))
				p.H.Discard(s, words(ajk))
			}
			// Solve Tmp * A(i,i)^T = A(j,i); A(i,i) now holds L(i,i).
			p.H.Load(s, triWords(di.Rows))
			trsmRightLevel(p, s-1, di, ji)
			p.H.Discard(s, triWords(di.Rows))
			p.H.Store(s, words(ji))
		}
		if mark {
			p.H.End()
			p.H.End()
		}
	}
	return nil
}

// cholKernel is the shared base case: the in-fast-memory factorization, or
// its access stream when the plan carries a Tracer. Only the arithmetic can
// fail.
func cholKernel(p *Plan, a *matrix.Dense) error {
	if p.Trace != nil {
		p.Trace.cholesky(a)
		return nil
	}
	return matrix.CholeskyInPlace(a)
}

func cholRightLevel(p *Plan, s int, a *matrix.Dense) error {
	if s < 0 {
		if err := cholKernel(p, a); err != nil {
			return err
		}
		n := int64(a.Rows)
		p.H.Flops(n * n * n / 3)
		return nil
	}
	bs := p.BlockSizes[s]
	n := a.Rows
	nb := intmath.CeilDiv(n, bs)
	blk := func(i, k int) *matrix.Dense {
		return a.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}

	mark := p.marking(s)
	for i := 0; i < nb; i++ {
		if mark {
			p.H.Begin(panelLabels.Get(i))
			p.H.Begin("factor")
		}
		di := blk(i, i)
		p.H.Load(s, triWords(di.Rows))
		if err := cholRightLevel(p, s-1, di); err != nil {
			return fmt.Errorf("core: Cholesky pivot block %d: %w", i, err)
		}
		// Panel below the diagonal.
		for j := i + 1; j < nb; j++ {
			ji := blk(j, i)
			p.H.Load(s, words(ji))
			trsmRightLevel(p, s-1, di, ji)
			p.H.Store(s, words(ji))
		}
		p.H.Store(s, triWords(di.Rows))
		if mark {
			p.H.End()
			p.H.Begin("update")
		}
		// Right-looking Schur-complement update: every trailing block
		// is loaded, updated by one product, and stored again — the
		// write-amplifying pattern the paper warns about.
		for j := i + 1; j < nb; j++ {
			ji := blk(j, i)
			p.H.Load(s, words(ji))
			for k := i + 1; k <= j; k++ {
				ki := blk(k, i)
				p.H.Load(s, words(ki))
				tb := blk(j, k)
				w, mode := words(tb), modeSubABt
				if k == j {
					w, mode = triWords(tb.Rows), modeSubABtLower
				}
				p.H.Load(s, w)
				// A(j,k) -= A(j,i)*A(k,i)^T  (lower triangle only on the diagonal)
				gemmLevel(p, s-1, tb, ji, ki, mode)
				p.H.Store(s, w)
				p.H.Discard(s, words(ki))
			}
			p.H.Discard(s, words(ji))
		}
		if mark {
			p.H.End()
			p.H.End()
		}
	}
	return nil
}

// trsmRightLevel solves Tmp * L^T = B for Tmp, overwriting B, where L is
// lower triangular; this is the TRSM flavor Cholesky needs (paper line 16 of
// Algorithm 3). Blocked with the k-innermost (WA) order.
func trsmRightLevel(p *Plan, s int, l, b *matrix.Dense) {
	if s < 0 {
		if p.Trace != nil {
			p.Trace.trsmLowerTransRight(l, b)
		} else {
			matrix.TRSMLowerTransRight(l, b)
		}
		p.H.Flops(int64(b.Rows) * int64(l.Rows) * int64(l.Rows))
		return
	}
	bs := p.BlockSizes[s]
	n, m := l.Rows, b.Rows
	nb, mb := intmath.CeilDiv(n, bs), intmath.CeilDiv(m, bs)
	blkL := func(i, k int) *matrix.Dense {
		return l.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}
	blkB := func(i, j int) *matrix.Dense {
		return b.Block(i*bs, j*bs, min(bs, m-i*bs), min(bs, n-j*bs))
	}
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			bb := blkB(i, j)
			p.H.Load(s, words(bb))
			for k := 0; k < j; k++ {
				xk, lk := blkB(i, k), blkL(j, k)
				p.H.Load(s, words(xk))
				p.H.Load(s, words(lk))
				// B(i,j) -= X(i,k) * L(j,k)^T
				gemmLevel(p, s-1, bb, xk, lk, modeSubABt)
				p.H.Discard(s, words(xk))
				p.H.Discard(s, words(lk))
			}
			lj := blkL(j, j)
			p.H.Load(s, words(lj))
			trsmRightLevel(p, s-1, lj, bb)
			p.H.Discard(s, words(lj))
			p.H.Store(s, words(bb))
		}
	}
}

// PredictCholesky returns the exact OrderWA (left-looking) top-interface
// counts for an n-by-n factorization with block size B (T = n/B block rows,
// tri = B(B+1)/2 words in a diagonal triangle):
//
//	stores = T*tri + B^2*T(T-1)/2            (~ n^2/2: the output, once)
//	loads  = T*tri                            diagonal triangles
//	       + B^2*T(T-1)/2                     SYRK operands
//	       + B^2*T(T-1)/2                     off-diagonal C blocks
//	       + 2*B^2*(T choose 2 pairs summed)  GEMM operand pairs
//	       + tri*T(T-1)/2                     diagonal re-loads for TRSM
func PredictCholesky(n, blockSize int) (loadWords, storeWords int64) {
	b := int64(blockSize)
	t := int64(n) / b
	tri := b * (b + 1) / 2
	gemmPairs := int64(0) // Σ_{i<T} Σ_{j>i..T-1} i  = Σ_i i*(T-1-i)
	for i := int64(0); i < t; i++ {
		gemmPairs += i * (t - 1 - i)
	}
	syrkBlocks := t * (t - 1) / 2 // Σ_i i
	offDiag := t * (t - 1) / 2
	loadWords = t*tri + b*b*syrkBlocks + b*b*offDiag + 2*b*b*gemmPairs + tri*offDiag
	storeWords = t*tri + b*b*offDiag
	return loadWords, storeWords
}
