package core

import (
	"writeavoid/internal/intmath"
	"writeavoid/internal/matrix"
)

// TRSM solves T*X = B for X where T is n-by-n upper triangular and B is
// n-by-m, overwriting B with X, per the plan's blocking (the paper's
// Algorithm 2 for OrderWA, generalized to multiple levels). Updates recurse
// into the blocked GEMM; the diagonal solve recurses into TRSM itself.
func TRSM(p *Plan, t, b *matrix.Dense) error {
	if t.Rows != t.Cols || t.Rows != b.Rows {
		return errShape("TRSM", b, t, b)
	}
	if err := p.validate(t.Rows, b.Cols); err != nil {
		return err
	}
	trsmLevel(p, p.topInterface(), t, b)
	return nil
}

func trsmLevel(p *Plan, s int, t, b *matrix.Dense) {
	if s < 0 {
		if p.Trace != nil {
			p.Trace.trsmUpperLeft(t, b)
		} else {
			matrix.TRSMUpperLeft(t, b)
		}
		p.H.Flops(int64(t.Rows) * int64(t.Rows) * int64(b.Cols)) // ~n^2*m for the triangle
		return
	}
	bs := p.BlockSizes[s]
	n, m := t.Rows, b.Cols
	nb, mb := intmath.CeilDiv(n, bs), intmath.CeilDiv(m, bs)

	blkT := func(i, k int) *matrix.Dense {
		return t.Block(i*bs, k*bs, min(bs, n-i*bs), min(bs, n-k*bs))
	}
	blkB := func(i, j int) *matrix.Dense {
		return b.Block(i*bs, j*bs, min(bs, n-i*bs), min(bs, m-j*bs))
	}

	update := func(i, j, k int) {
		tb, xb := blkT(i, k), blkB(k, j)
		p.H.Load(s, words(tb))
		p.H.Load(s, words(xb))
		gemmLevel(p, s-1, blkB(i, j), tb, xb, modeSubAB)
		p.H.Discard(s, words(tb))
		p.H.Discard(s, words(xb))
	}
	diagSolve := func(i, j int) {
		tb := blkT(i, i)
		p.H.Load(s, words(tb))
		trsmLevel(p, s-1, tb, blkB(i, j))
		p.H.Discard(s, words(tb))
	}

	mark := p.marking(s)
	switch p.orderAt(s) {
	case OrderWA:
		// Algorithm 2: k innermost, so B(i,j) accumulates all updates
		// while resident and is stored exactly once.
		for j := 0; j < mb; j++ {
			for i := nb - 1; i >= 0; i-- {
				if mark {
					p.H.Begin(bBlockLabels.Get(i, j))
				}
				bb := blkB(i, j)
				p.H.Load(s, words(bb))
				for k := i + 1; k < nb; k++ {
					update(i, j, k)
				}
				diagSolve(i, j)
				p.H.Store(s, words(bb))
				if mark {
					p.H.End()
				}
			}
		}
	case OrderNonWA:
		// k outermost (a right-looking substitution): after solving row
		// block k, immediately apply it to all blocks above, re-loading
		// and re-storing each B(i,j) once per k.
		for j := 0; j < mb; j++ {
			for k := nb - 1; k >= 0; k-- {
				if mark {
					p.H.Begin(kLabels.Get(k))
				}
				bb := blkB(k, j)
				p.H.Load(s, words(bb))
				diagSolve(k, j)
				p.H.Store(s, words(bb))
				for i := k - 1; i >= 0; i-- {
					cb := blkB(i, j)
					p.H.Load(s, words(cb))
					update(i, j, k)
					p.H.Store(s, words(cb))
				}
				if mark {
					p.H.End()
				}
			}
		}
	}
}

// PredictTRSM returns the exact OrderWA word counts at the top interface for
// an n-by-n triangular solve with m right-hand columns and block size B:
//
//	loads  = n*m (B blocks) + (n/B-1)*n*m (T,X update pairs) + n*B*(m/B)*(n/B) (diagonal blocks)
//	       = n^2*m/B + n*m
//	stores = n*m
//
// matching the paper's ~n^3/b + 1.5 n^2 for m=n (the paper loads only the
// diagonal triangle, ~b^2/2; this implementation loads the full diagonal
// block, so the diagonal term is n*m rather than n*m/2).
func PredictTRSM(n, m, blockSize int) (loadWords, storeWords int64) {
	N, M, b := int64(n), int64(m), int64(blockSize)
	nb, mb := N/b, M/b
	// Update pairs: for each (j,i), k ranges over i+1..nb-1.
	pairs := mb * nb * (nb - 1) / 2
	loadWords = N*M + pairs*2*b*b + nb*mb*b*b
	storeWords = N * M
	return loadWords, storeWords
}

// PredictTRSMNonWA returns the top-interface counts for OrderNonWA, where
// every B block above row k moves once per k:
//
//	stores = n*m/B * (avg row count) = (n/B+1)/2 * n*m ... computed exactly below.
func PredictTRSMNonWA(n, m, blockSize int) (loadWords, storeWords int64) {
	N, M, b := int64(n), int64(m), int64(blockSize)
	nb, mb := N/b, M/b
	pairs := mb * nb * (nb - 1) / 2                                          // one (load C, update, store C) per pair
	bMoves := mb*nb + pairs                                                  // diagonal solves + updates
	loadWords = bMoves*b*b /* C loads */ + pairs*2*b*b /* T,X */ + nb*mb*b*b /* diagonals */
	storeWords = bMoves * b * b
	return loadWords, storeWords
}
