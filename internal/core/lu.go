package core

import (
	"fmt"

	"writeavoid/internal/intmath"

	"writeavoid/internal/matrix"
)

// LU factors A = L*U (no pivoting) in place, leaving the packed factors (L
// strictly below the diagonal with an implied unit diagonal, U on and above
// it). The paper's Section 4.3 conjectures that the left-/right-looking
// contrast of Cholesky carries over to LU; this implementation confirms it:
//
//   - OrderWA (left-looking): every block of the matrix is stored to slow
//     memory exactly once (n^2 words), after absorbing all updates from the
//     block columns to its left while resident in fast memory.
//   - OrderNonWA (right-looking): after each block column is factored, the
//     whole trailing Schur complement is re-loaded and re-stored, for
//     Theta(n^3/b) writes.
//
// Like the other Section 4 kernels it extends to arbitrarily many levels:
// the block updates recurse through the blocked GEMM and the panel solves
// through blocked TRSM variants.
func LU(p *Plan, a *matrix.Dense) error {
	if a.Rows != a.Cols {
		return errShape("LU", a, a, a)
	}
	if err := p.validate(a.Rows); err != nil {
		return err
	}
	switch p.Order {
	case OrderWA:
		return luLeftLevel(p, p.topInterface(), a)
	default:
		return luRightLevel(p, p.topInterface(), a)
	}
}

func luLeftLevel(p *Plan, s int, a *matrix.Dense) error {
	if s < 0 {
		if err := matrix.LUInPlace(a); err != nil {
			return err
		}
		n := int64(a.Rows)
		p.H.Flops(2 * n * n * n / 3)
		return nil
	}
	bs := p.BlockSizes[s]
	n := a.Rows
	nb := intmath.CeilDiv(n, bs)
	blk := func(i, k int) *matrix.Dense {
		return a.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}

	// Left-looking over block columns; within a column, top-down over row
	// blocks so each U(r,I) exists before the blocks below consume it.
	mark := p.marking(s)
	for i := 0; i < nb; i++ {
		if mark {
			p.H.Begin(panelLabels.Get(i))
		}
		for r := 0; r < nb; r++ {
			ri := blk(r, i)
			p.H.Load(s, words(ri))
			// Updates from the columns to the left: A(r,I) -=
			// L(r,K)*U(K,I) for K < min(r,I).
			for k := 0; k < min(r, i); k++ {
				l, u := blk(r, k), blk(k, i)
				p.H.Load(s, words(l))
				p.H.Load(s, words(u))
				gemmLevel(p, s-1, ri, l, u, modeSubAB)
				p.H.Discard(s, words(l))
				p.H.Discard(s, words(u))
			}
			switch {
			case r < i:
				// U(r,I) = L(r,r)^-1 * A'(r,I).
				d := blk(r, r)
				p.H.Load(s, words(d))
				trsmUnitLowerLevel(p, s-1, d, ri)
				p.H.Discard(s, words(d))
			case r == i:
				if err := luLeftLevel(p, s-1, ri); err != nil {
					return fmt.Errorf("core: LU pivot block %d: %w", i, err)
				}
			default:
				// L(r,I) = A'(r,I) * U(I,I)^-1.
				d := blk(i, i)
				p.H.Load(s, words(d))
				trsmUpperRightLevel(p, s-1, d, ri)
				p.H.Discard(s, words(d))
			}
			p.H.Store(s, words(ri))
		}
		if mark {
			p.H.End()
		}
	}
	return nil
}

func luRightLevel(p *Plan, s int, a *matrix.Dense) error {
	if s < 0 {
		if err := matrix.LUInPlace(a); err != nil {
			return err
		}
		n := int64(a.Rows)
		p.H.Flops(2 * n * n * n / 3)
		return nil
	}
	bs := p.BlockSizes[s]
	n := a.Rows
	nb := intmath.CeilDiv(n, bs)
	blk := func(i, k int) *matrix.Dense {
		return a.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}

	mark := p.marking(s)
	for k := 0; k < nb; k++ {
		if mark {
			p.H.Begin(panelLabels.Get(k))
			p.H.Begin("factor")
		}
		// Factor the diagonal.
		d := blk(k, k)
		p.H.Load(s, words(d))
		if err := luRightLevel(p, s-1, d); err != nil {
			return fmt.Errorf("core: LU pivot block %d: %w", k, err)
		}
		// Panels.
		for i := k + 1; i < nb; i++ {
			ik := blk(i, k)
			p.H.Load(s, words(ik))
			trsmUpperRightLevel(p, s-1, d, ik) // L(i,k)
			p.H.Store(s, words(ik))
		}
		for j := k + 1; j < nb; j++ {
			kj := blk(k, j)
			p.H.Load(s, words(kj))
			trsmUnitLowerLevel(p, s-1, d, kj) // U(k,j)
			p.H.Store(s, words(kj))
		}
		p.H.Store(s, words(d))
		if mark {
			p.H.End()
			p.H.Begin("update")
		}
		// Trailing update: the right-looking write amplification.
		for i := k + 1; i < nb; i++ {
			l := blk(i, k)
			p.H.Load(s, words(l))
			for j := k + 1; j < nb; j++ {
				u := blk(k, j)
				t := blk(i, j)
				p.H.Load(s, words(u))
				p.H.Load(s, words(t))
				gemmLevel(p, s-1, t, l, u, modeSubAB)
				p.H.Store(s, words(t))
				p.H.Discard(s, words(u))
			}
			p.H.Discard(s, words(l))
		}
		if mark {
			p.H.End()
			p.H.End()
		}
	}
	return nil
}

// trsmUnitLowerLevel solves L*X = B for X (overwriting B) where L is the
// unit-lower factor of an LU-packed square block, blocked with the
// write-avoiding k-innermost order.
func trsmUnitLowerLevel(p *Plan, s int, l, b *matrix.Dense) {
	if s < 0 {
		matrix.TRSMUnitLowerLeftPacked(l, b)
		p.H.Flops(int64(l.Rows) * int64(l.Rows) * int64(b.Cols))
		return
	}
	bs := p.BlockSizes[s]
	n, m := l.Rows, b.Cols
	nb, mb := intmath.CeilDiv(n, bs), intmath.CeilDiv(m, bs)
	blkL := func(i, k int) *matrix.Dense {
		return l.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}
	blkB := func(i, j int) *matrix.Dense {
		return b.Block(i*bs, j*bs, min(bs, n-i*bs), min(bs, m-j*bs))
	}
	for j := 0; j < mb; j++ {
		for i := 0; i < nb; i++ {
			bb := blkB(i, j)
			p.H.Load(s, words(bb))
			for k := 0; k < i; k++ {
				lk, xk := blkL(i, k), blkB(k, j)
				p.H.Load(s, words(lk))
				p.H.Load(s, words(xk))
				gemmLevel(p, s-1, bb, lk, xk, modeSubAB)
				p.H.Discard(s, words(lk))
				p.H.Discard(s, words(xk))
			}
			dk := blkL(i, i)
			p.H.Load(s, words(dk))
			trsmUnitLowerLevel(p, s-1, dk, bb)
			p.H.Discard(s, words(dk))
			p.H.Store(s, words(bb))
		}
	}
}

// trsmUpperRightLevel solves X*U = B for X (overwriting B) where U is the
// upper factor of an LU-packed square block, blocked WA.
func trsmUpperRightLevel(p *Plan, s int, u, b *matrix.Dense) {
	if s < 0 {
		matrix.TRSMUpperRightPacked(u, b)
		p.H.Flops(int64(b.Rows) * int64(u.Rows) * int64(u.Rows))
		return
	}
	bs := p.BlockSizes[s]
	n, m := u.Rows, b.Rows
	nb, mb := intmath.CeilDiv(n, bs), intmath.CeilDiv(m, bs)
	blkU := func(k, j int) *matrix.Dense {
		return u.Block(k*bs, j*bs, min(bs, n-k*bs), min(bs, n-j*bs))
	}
	blkB := func(i, j int) *matrix.Dense {
		return b.Block(i*bs, j*bs, min(bs, m-i*bs), min(bs, n-j*bs))
	}
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			bb := blkB(i, j)
			p.H.Load(s, words(bb))
			for k := 0; k < j; k++ {
				xk, uk := blkB(i, k), blkU(k, j)
				p.H.Load(s, words(xk))
				p.H.Load(s, words(uk))
				gemmLevel(p, s-1, bb, xk, uk, modeSubAB)
				p.H.Discard(s, words(xk))
				p.H.Discard(s, words(uk))
			}
			dk := blkU(j, j)
			p.H.Load(s, words(dk))
			trsmUpperRightLevel(p, s-1, dk, bb)
			p.H.Discard(s, words(dk))
			p.H.Store(s, words(bb))
		}
	}
}

// PredictLU returns the exact OrderWA (left-looking) top-interface counts
// for an n-by-n LU with block size B (T = n/B):
//
//	stores = n^2                         (each block once)
//	loads  = n^2 (the blocks themselves)
//	       + 2*B^2*Sum_(r,i) min(r,i)    (L,U update pairs)
//	       + B^2*(T^2 - T)               (diagonal blocks for the TRSMs)
func PredictLU(n, blockSize int) (loadWords, storeWords int64) {
	b := int64(blockSize)
	t := int64(n) / b
	var pairs int64
	for r := int64(0); r < t; r++ {
		for i := int64(0); i < t; i++ {
			pairs += min64(r, i)
		}
	}
	offDiag := t*t - t // one diagonal-block load per off-diagonal block
	loadWords = int64(n)*int64(n) + 2*b*b*pairs + b*b*offDiag
	storeWords = int64(n) * int64(n)
	return loadWords, storeWords
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
