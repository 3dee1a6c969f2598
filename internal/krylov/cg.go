package krylov

import (
	"fmt"
	"math"
)

// Result reports a solver run.
type Result struct {
	X         []float64
	Iters     int     // fine-grained CG iterations performed
	Residual  float64 // final ||b - A x||_2
	FlopCount int64
}

// CG solves Ax=b with the conjugate gradient method (the paper's Algorithm
// 6), running exactly iters iterations (or stopping early at tol), charging
// vector traffic to t. Each iteration writes ~4n words to slow memory
// (x, r, w and p), which is the W12 = Omega(N*n) behaviour CA-CG's streaming
// variant beats.
func CG(a *CSR, b, x0 []float64, iters int, tol float64, t *Traffic) Result {
	n := a.N
	x := append([]float64(nil), x0...)
	w := make([]float64, n)

	// r = p = b - A*x0.
	t.Begin("setup")
	a.MulVec(w, x)
	t.R(a.NNZ() + n) // matrix + x
	t.W(n)           // w
	r := make([]float64, n)
	for i := range r {
		r[i] = b[i] - w[i]
	}
	t.R(2 * n)
	t.W(n)
	p := append([]float64(nil), r...)
	t.R(n)
	t.W(n)
	dprv := Dot(t, r, r)
	var flops int64 = int64(2*a.NNZ() + 6*n)
	t.End()

	mark := t.Marking()
	it := 0
	for ; it < iters; it++ {
		if dprv <= tol*tol {
			break
		}
		if mark {
			t.Begin(iterLabels.Get(it))
		}
		a.MulVec(w, p)
		t.R(a.NNZ() + n)
		t.W(n)
		alpha := dprv / Dot(t, p, w)
		Axpy(t, alpha, p, x)
		Axpy(t, -alpha, w, r)
		dcur := Dot(t, r, r)
		beta := dcur / dprv
		XpbyInto(t, r, beta, p)
		dprv = dcur
		flops += int64(2*a.NNZ() + 10*n)
		if mark {
			t.End()
		}
	}

	// Final residual (not charged: diagnostic).
	res := make([]float64, n)
	a.MulVec(res, x)
	s := 0.0
	for i := range res {
		d := b[i] - res[i]
		s += d * d
	}
	return Result{X: x, Iters: it, Residual: sqrt(s), FlopCount: flops}
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// CACGMode selects how the s-step method materializes its Krylov basis.
type CACGMode int

const (
	// CACGStored computes and stores the full basis [P,R] (2s+1 vectors)
	// in slow memory, then reads it back for the Gram matrix and the
	// recovery: communication-avoiding, but W12 stays Theta(n) per
	// fine-grained iteration.
	CACGStored CACGMode = iota
	// CACGStreaming interleaves a blockwise basis computation with the
	// Gram accumulation, discards the basis, and recomputes it blockwise
	// for the recovery (the paper's Section 8 "streaming matrix powers"):
	// W12 drops to Theta(n/s) per iteration while basis flops double.
	CACGStreaming
)

// Basis selects the polynomial family rho of Algorithm 7.
type Basis int

const (
	// BasisMonomial is rho_j(x) = (x/sigma)^j with sigma a Gershgorin
	// bound on ||A||: cheap, but its columns become collinear for larger
	// s (the finite-precision caveat the paper notes).
	BasisMonomial Basis = iota
	// BasisNewton is the shifted Newton basis rho_{j+1}(x) =
	// (x - theta_j) rho_j(x) / sigma with Leja-ordered Chebyshev shifts
	// on the operator's Gershgorin interval — the standard conditioning
	// remedy, keeping CA-CG faithful to CG at larger s.
	BasisNewton
)

// CACGConfig parameterizes CACG.
type CACGConfig struct {
	S     int      // steps per outer iteration
	Mode  CACGMode //
	Basis Basis    // polynomial basis (default monomial)
	Block int      // streaming block size (rows per block); 0 = n/8
	// Matrix, when non-nil, is the operator's CSR form (op.Matrix()), built
	// once by a caller that runs several solves on one operator; nil builds
	// it per solve.
	Matrix *CSR
}

// basisRecurrence holds the two-term recurrence x*rho_j = sigma*rho_{j+1} +
// theta_j*rho_j defining the basis.
type basisRecurrence struct {
	sigma  float64
	thetas []float64 // length >= s; all zero for the monomial basis
}

func newRecurrence(op Operator, s int, b Basis) basisRecurrence {
	switch b {
	case BasisNewton:
		lo, hi := op.SpectrumBounds()
		return basisRecurrence{sigma: (hi - lo) / 2, thetas: lejaShifts(lo, hi, s)}
	default:
		return basisRecurrence{sigma: op.NormBound(), thetas: make([]float64, s)}
	}
}

// lejaShifts returns s Chebyshev points of [lo,hi] in Leja order (each next
// point maximizes the product of distances to those already chosen), the
// standard shift ordering for Newton-basis Krylov methods.
func lejaShifts(lo, hi float64, s int) []float64 {
	pts := make([]float64, s)
	mid, rad := (lo+hi)/2, (hi-lo)/2
	for k := 0; k < s; k++ {
		pts[k] = mid + rad*math.Cos(math.Pi*float64(2*k+1)/(2*float64(s)))
	}
	out := make([]float64, 0, s)
	used := make([]bool, s)
	// Start from the largest-magnitude point.
	best := 0
	for k := 1; k < s; k++ {
		if math.Abs(pts[k]-mid) > math.Abs(pts[best]-mid) {
			best = k
		}
	}
	out = append(out, pts[best])
	used[best] = true
	for len(out) < s {
		bi, bv := -1, -1.0
		for k := 0; k < s; k++ {
			if used[k] {
				continue
			}
			prod := 1.0
			for _, q := range out {
				prod *= math.Abs(pts[k] - q)
			}
			if prod > bv {
				bi, bv = k, prod
			}
		}
		out = append(out, pts[bi])
		used[bi] = true
	}
	return out
}

// Operator is a structured sparse operator CA-CG can stream: it exposes its
// CSR form for whole-vector products and a blockwise basis computation for
// the streaming matrix-powers kernel. Ring (1-D) and Torus (2-D) implement
// it; the ghost-zone geometry is the paper's (2b+1)^d-point stencil story.
type Operator interface {
	Size() int
	Matrix() *CSR
	NormBound() float64
	SpectrumBounds() (lo, hi float64)
	// basisBlocks computes, block by block, the 2s+1 basis columns
	// restricted to the block (idx maps block-local positions to global
	// mesh indices), charging only the ghost-inflated reads of p and r.
	// idx and cols are valid only until fn returns: the next block
	// overwrites them.
	basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64, fn func(idx []int, cols [][]float64))
}

// CACG solves Ax=b on a structured operator with the polynomial-basis CA-CG
// of Algorithm 7, running outer iterations of S inner steps each. It is
// numerically equivalent to S*outers iterations of CG in exact arithmetic.
func CACG(op Operator, b, x0 []float64, outers int, cfg CACGConfig, t *Traffic) (Result, error) {
	n := op.Size()
	s := cfg.S
	if s < 1 {
		return Result{}, fmt.Errorf("krylov: s must be >= 1, got %d", s)
	}
	if cfg.Block <= 0 {
		cfg.Block = max(1, n/8)
	}
	a := cfg.Matrix
	if a == nil {
		a = op.Matrix()
	}

	x := append([]float64(nil), x0...)
	w := make([]float64, n)
	t.Begin("setup")
	a.MulVec(w, x)
	t.R(a.NNZ() + n)
	t.W(n)
	r := make([]float64, n)
	for i := range r {
		r[i] = b[i] - w[i]
	}
	t.R(2 * n)
	t.W(n)
	p := append([]float64(nil), r...)
	t.R(n)
	t.W(n)
	dprv := dotPlain(r, r)
	t.R(2 * n)
	var flops int64 = int64(2*a.NNZ() + 6*n)
	t.End()

	rec := newRecurrence(op, s, cfg.Basis)
	var basis [][]float64
	if cfg.Mode == CACGStored {
		basis = make([][]float64, 2*s+1)
		store := make([]float64, len(basis)*n)
		for c := range basis {
			basis[c] = store[c*n : (c+1)*n]
		}
	}
	mark := t.Marking()
	iters := 0
	for o := 0; o < outers; o++ {
		if mark {
			t.Begin(outerLabels.Get(o))
		}
		switch cfg.Mode {
		case CACGStored:
			// Basis written to and read back from slow memory.
			t.Begin("basis")
			buildBasisFull(basis, a, p, r, s, rec, t, &flops)
			t.End()
			t.Begin("gram")
			g := gramFull(basis, t, &flops)
			t.End()
			t.Begin("inner")
			ph, rh, xh := innerIterations(g, s, rec, &dprv, &flops)
			iters += s
			t.End()
			t.Begin("recover")
			recoverFull(basis, ph, rh, xh, p, r, x, t, &flops)
			t.End()
		case CACGStreaming:
			// Basis never written: computed blockwise twice. The basis
			// recomputation is interleaved with the Gram accumulation, so
			// "gram" covers both here.
			t.Begin("gram")
			g := gramStreaming(op, p, r, s, rec, cfg.Block, t, &flops)
			t.End()
			t.Begin("inner")
			ph, rh, xh := innerIterations(g, s, rec, &dprv, &flops)
			iters += s
			t.End()
			t.Begin("recover")
			recoverStreaming(op, p, r, x, ph, rh, xh, s, rec, cfg.Block, t, &flops)
			t.End()
		default:
			return Result{}, fmt.Errorf("krylov: unknown mode %d", cfg.Mode)
		}
		if mark {
			t.End()
		}
	}

	res := make([]float64, n)
	a.MulVec(res, x)
	sum := 0.0
	for i := range res {
		d := b[i] - res[i]
		sum += d * d
	}
	return Result{X: x, Iters: iters, Residual: sqrt(sum), FlopCount: flops}, nil
}

// dotPlain is an uncounted dot product for scalar bookkeeping already
// charged elsewhere.
func dotPlain(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// buildBasisFull computes the basis columns
// V = [p, rho_1(A) p, ..., rho_s(A) p, r, ..., rho_(s-1)(A) r] into the 2s+1
// vectors of basis with whole-vector SpMVs by a, writing each column to slow
// memory.
func buildBasisFull(basis [][]float64, a *CSR, p, r []float64, s int, rec basisRecurrence, t *Traffic, flops *int64) {
	fullPowers(basis[:s+1], a, p, rec, t, flops)
	fullPowers(basis[s+1:], a, r, rec, t, flops)
}

// fullPowers copies src into cols[0] and computes cols[j] =
// (A - theta_(j-1)) cols[j-1] / sigma for the rest.
func fullPowers(cols [][]float64, a *CSR, src []float64, rec basisRecurrence, t *Traffic, flops *int64) {
	n := a.N
	inv := 1 / rec.sigma
	copy(cols[0], src)
	t.R(n)
	t.W(n)
	for j := 1; j < len(cols); j++ {
		cur, next := cols[j-1], cols[j]
		a.MulVec(next, cur)
		theta := rec.thetas[j-1]
		cur = cur[:len(next)]
		for i := range next {
			next[i] = (next[i] - theta*cur[i]) * inv
		}
		t.R(a.NNZ() + n)
		t.W(n)
		*flops += int64(2*a.NNZ() + 2*n)
	}
}

// gramFull reads the stored basis back and forms G.
func gramFull(basis [][]float64, t *Traffic, flops *int64) [][]float64 {
	dim := len(basis)
	n := len(basis[0])
	g := newGram(dim)
	gramAdd(g, basis, n)
	mirrorUpper(g)
	t.R(dim * n) // one streaming pass over the basis (blocked rank-k update)
	*flops += int64(dim * dim * n)
	return g
}

// gramStreaming computes G blockwise without ever writing the basis to slow
// memory: for each row block, the 2s+1 basis columns are computed in fast
// memory from p and r (with ghost-zone reads) and accumulated into G.
func gramStreaming(op Operator, p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64) [][]float64 {
	dim := 2*s + 1
	g := newGram(dim)
	op.basisBlocks(p, r, s, rec, block, t, flops, func(idx []int, cols [][]float64) {
		gramAdd(g, cols, len(idx))
		*flops += int64(dim * dim * len(idx))
	})
	mirrorUpper(g)
	return g
}

// newGram returns a zero dim x dim matrix.
func newGram(dim int) [][]float64 {
	g := make([][]float64, dim)
	for i := range g {
		g[i] = make([]float64, dim)
	}
	return g
}

// gramAdd adds the dot product of cols[i][:w] and cols[j][:w] to g[i][j]
// for every i <= j, four columns j per pass over cols[i]; where fewer than
// four are left, the pass repeats the last column and drops those dots.
// Each dot has its own accumulator, summed from zero in index order as
// dotPlain does. A dot summed from +0 is never -0, so adding it to a fresh
// zero entry stores the dot itself.
func gramAdd(g, cols [][]float64, w int) {
	last := len(g) - 1
	for i, gi := range g {
		a := cols[i][:w]
		for j := i; j <= last; j += 4 {
			b0 := cols[j][:w]
			b1 := cols[min(j+1, last)][:w]
			b2 := cols[min(j+2, last)][:w]
			b3 := cols[min(j+3, last)][:w]
			var v0, v1, v2, v3 float64
			for e, ae := range a {
				v0 += ae * b0[e]
				v1 += ae * b1[e]
				v2 += ae * b2[e]
				v3 += ae * b3[e]
			}
			gi[j] += v0
			if j+1 <= last {
				gi[j+1] += v1
			}
			if j+2 <= last {
				gi[j+2] += v2
			}
			if j+3 <= last {
				gi[j+3] += v3
			}
		}
	}
}

// mirrorUpper copies g's upper triangle into its lower one. An entry and
// its mirror receive the same sums in the same order, so the copy holds the
// bits that adding to both would have.
func mirrorUpper(g [][]float64) {
	for i := range g {
		for j := i + 1; j < len(g); j++ {
			g[j][i] = g[i][j]
		}
	}
}

// recoverFull computes [p,r,x] = [basis]*[ph,rh,xh] + [0,0,x] reading the
// stored basis from slow memory.
func recoverFull(basis [][]float64, ph, rh, xh, p, r, x []float64, t *Traffic, flops *int64) {
	n := len(p)
	dim := len(basis)
	for e := 0; e < n; e++ {
		var vp, vr, vx float64
		for c := 0; c < dim; c++ {
			b := basis[c][e]
			vp += b * ph[c]
			vr += b * rh[c]
			vx += b * xh[c]
		}
		p[e] = vp
		r[e] = vr
		x[e] += vx
	}
	t.R(dim*n + n) // basis + old x
	t.W(3 * n)     // p, r, x
	*flops += int64(6 * dim * n)
}

// recoverStreaming recomputes the basis blockwise (the doubled flops the
// paper prices in) and accumulates [p,r,x] block by block. p and r are
// consumed as inputs per block and overwritten only after the block's basis
// columns exist, so the update is staged through a scratch copy of the
// original p and r.
func recoverStreaming(op Operator, p, r, x []float64, ph, rh, xh []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64) {
	n := op.Size()
	dim := 2*s + 1
	// The blockwise basis recomputation needs the ORIGINAL p and r even
	// for blocks already overwritten; keep scratch copies (charged: one
	// read of each, one write of each — still O(n), not O(s*n)).
	p0 := append([]float64(nil), p...)
	r0 := append([]float64(nil), r...)
	t.R(2 * n)
	t.W(2 * n)
	op.basisBlocks(p0, r0, s, rec, block, t, flops, func(idx []int, cols [][]float64) {
		for li, e := range idx {
			var vp, vr, vx float64
			for c := 0; c < dim; c++ {
				b := cols[c][li]
				vp += b * ph[c]
				vr += b * rh[c]
				vx += b * xh[c]
			}
			p[e] = vp
			r[e] = vr
			x[e] += vx
		}
		w := len(idx)
		t.R(w)     // old x block
		t.W(3 * w) // p, r, x blocks
		*flops += int64(6 * dim * w)
	})
}

// basisBlocks computes, for each row block [lo,hi), the 2s+1 basis columns
// restricted to the block (using ghost zones of width s*b read from slow
// memory) and hands them to fn. Nothing is written to slow memory here; the
// traffic charged is the block reads of p and r including ghosts. Every
// column is the centered window of its own interval buffer, and the buffers
// are allocated once and reused by every block.
func (ring Ring) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	n := ring.N
	bw := ring.B
	block = min(block, n)
	ghost := s * bw
	inv := 1 / rec.sigma
	span := block + 2*ghost // the widest interval: a full block's sources
	store := make([]float64, (2*s+1)*span)
	cols := make([][]float64, 2*s+1)
	idx := make([]int, block)
	for lo := 0; lo < n; lo += block {
		hi := min(n, lo+block)
		w := hi - lo
		c := 0 // next column; column c lives in store[c*span:]
		// P-side: powers applied to p; R-side: one fewer applied to r.
		for side, v := range [2][]float64{p, r} {
			// Expanded source interval [lo-ghost, hi+ghost).
			src := store[c*span : c*span+w+2*ghost]
			ring.Gather(src, v, lo-ghost)
			t.R(len(src))
			cols[c] = src[ghost : ghost+w]
			c++
			cur := src
			for j := 1; j <= s-side; j++ {
				nw := w + 2*(ghost-j*bw)
				next := store[c*span : c*span+nw]
				ring.Apply(next, cur[:nw+2*bw])
				theta := rec.thetas[j-1]
				for i := range next {
					next[i] = (next[i] - theta*cur[i+bw]) * inv
				}
				*flops += int64(nw * (4*bw + 3))
				cols[c] = next[ghost-j*bw : ghost-j*bw+w]
				c++
				cur = next
			}
		}
		for i := range w {
			idx[i] = lo + i
		}
		fn(idx[:w], cols)
	}
}

// innerIterations runs the s coefficient-space CG steps of Algorithm 7.
// The basis recurrence x*rho_j = sigma*rho_{j+1} + theta_j*rho_j makes H a
// per-block shift with diagonal: w-hat[j+1] += sigma*p-hat[j] and
// w-hat[j] += theta_j*p-hat[j].
func innerIterations(g [][]float64, s int, rec basisRecurrence, dprv *float64, flops *int64) (ph, rh, xh []float64) {
	dim := 2*s + 1
	ph = make([]float64, dim)
	rh = make([]float64, dim)
	xh = make([]float64, dim)
	ph[0] = 1   // p-hat = e_1
	rh[s+1] = 1 // r-hat = e_{s+2}

	wh := make([]float64, dim)
	for j := 0; j < s; j++ {
		// w-hat = H * p-hat (coordinate shift within each block).
		for i := range wh {
			wh[i] = 0
		}
		for i := 0; i < s; i++ {
			wh[i+1] += rec.sigma * ph[i]
			wh[i] += rec.thetas[i] * ph[i]
		}
		for i := 0; i < s-1; i++ {
			wh[s+1+i+1] += rec.sigma * ph[s+1+i]
			wh[s+1+i] += rec.thetas[i] * ph[s+1+i]
		}
		alpha := *dprv / bilinear(g, ph, wh)
		for i := range xh {
			xh[i] += alpha * ph[i]
			rh[i] -= alpha * wh[i]
		}
		dcur := bilinear(g, rh, rh)
		beta := dcur / *dprv
		for i := range ph {
			ph[i] = rh[i] + beta*ph[i]
		}
		*dprv = dcur
		*flops += int64(4*dim*dim + 6*dim)
	}
	return ph, rh, xh
}

// bilinear returns u^T G v.
func bilinear(g [][]float64, u, v []float64) float64 {
	s := 0.0
	for i := range u {
		if u[i] == 0 {
			continue
		}
		row := g[i]
		for j := range v {
			s += u[i] * row[j] * v[j]
		}
	}
	return s
}
