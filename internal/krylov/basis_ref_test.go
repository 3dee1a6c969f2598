package krylov

import "fmt"

// Reference implementations: the copying basis kernels, the per-element
// stencil, gather, SpMV and Gram kernels, and the CA-CG solver that rebuilt
// the operator's CSR for every basis, kept verbatim as the slow reference
// the buffer-reusing, row-slice versions are checked against bit for bit.
// The reference solver and basis kernels call only these copies, never the
// production kernels they are compared with.

// refRing and refTorus run the reference basisBlocks and Matrix; the other
// Operator methods are the production ones.
type refRing struct{ Ring }

type refTorus struct{ Torus }

func (rr refRing) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	ring := rr.Ring
	n := ring.N
	bw := ring.B
	for lo := 0; lo < n; lo += block {
		hi := min(n, lo+block)
		w := hi - lo
		ghost := s * bw
		src := make([]float64, w+2*ghost)
		cols := make([][]float64, 0, 2*s+1)

		ringGatherRef(ring, src, p, lo-ghost)
		t.R(len(src))
		cols = append(cols, src[ghost:ghost+w])
		inv := 1 / rec.sigma
		cur := src
		for j := 1; j <= s; j++ {
			nw := w + 2*(ghost-j*bw)
			next := make([]float64, nw)
			ring.Apply(next, cur[:nw+2*bw])
			theta := rec.thetas[j-1]
			for i := range next {
				next[i] = (next[i] - theta*cur[i+bw]) * inv
			}
			*flops += int64(nw * (4*bw + 3))
			cols = append(cols, next[ghost-j*bw:ghost-j*bw+w])
			cur = next
		}
		src2 := make([]float64, w+2*ghost)
		ringGatherRef(ring, src2, r, lo-ghost)
		t.R(len(src2))
		cols = append(cols, src2[ghost:ghost+w])
		cur = src2
		for j := 1; j <= s-1; j++ {
			nw := w + 2*(ghost-j*bw)
			next := make([]float64, nw)
			ring.Apply(next, cur[:nw+2*bw])
			theta := rec.thetas[j-1]
			for i := range next {
				next[i] = (next[i] - theta*cur[i+bw]) * inv
			}
			*flops += int64(nw * (4*bw + 3))
			cols = append(cols, next[ghost-j*bw:ghost-j*bw+w])
			cur = next
		}
		idx := make([]int, w)
		for i := range idx {
			idx[i] = lo + i
		}
		fn(idx, cols)
	}
}

func (rt refTorus) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, traffic *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	t := rt.Torus
	k := t.K
	bw := t.B
	if block > k {
		block = k
	}
	inv := 1 / rec.sigma
	ghost := s * bw

	powersOf := func(src []float64, h, w, steps int) [][]float64 {
		cols := make([][]float64, 0, steps+1)
		cols = append(cols, trimBox(src, ghost, ghost, h, w, w+2*ghost))
		cur := src
		cg := ghost
		for j := 1; j <= steps; j++ {
			ng := ghost - j*bw
			nh, nw := h+2*ng, w+2*ng
			next := make([]float64, nh*nw)
			applyBoxRef(t, next, viewBox(cur, cg-ng-bw, cg-ng-bw, nh+2*bw, nw+2*bw, w+2*cg), nh, nw)
			theta := rec.thetas[j-1]
			curWin := trimBox(cur, cg-ng, cg-ng, nh, nw, w+2*cg)
			for i := range next {
				next[i] = (next[i] - theta*curWin[i]) * inv
			}
			*flops += int64(nh * nw * ((2*bw+1)*(2*bw+1) + 2))
			cols = append(cols, trimBox(next, ng, ng, h, w, nw))
			cur = next
			cg = ng
		}
		return cols
	}

	for y0 := 0; y0 < k; y0 += block {
		h := min(block, k-y0)
		for x0 := 0; x0 < k; x0 += block {
			w := min(block, k-x0)
			eh, ew := h+2*ghost, w+2*ghost

			srcP := make([]float64, eh*ew)
			gatherBoxRef(t, srcP, p, y0-ghost, x0-ghost, eh, ew)
			traffic.R(eh * ew)
			colsP := powersOf(srcP, h, w, s)

			srcR := make([]float64, eh*ew)
			gatherBoxRef(t, srcR, r, y0-ghost, x0-ghost, eh, ew)
			traffic.R(eh * ew)
			colsR := powersOf(srcR, h, w, s-1)

			cols := append(colsP, colsR...)
			idx := make([]int, h*w)
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					idx[iy*w+ix] = (y0+iy)*k + (x0 + ix)
				}
			}
			fn(idx, cols)
		}
	}
}

// ringGatherRef copies mesh interval [lo, lo+len(dst)) of x element by
// element, two remainders per element.
func ringGatherRef(r Ring, dst, x []float64, lo int) {
	n := r.N
	for i := range dst {
		dst[i] = x[((lo+i)%n+n)%n]
	}
}

// gatherBoxRef copies the periodic (h x w) box anchored at mesh (y0,x0)
// element by element, two remainders per element.
func gatherBoxRef(t Torus, dst, x []float64, y0, x0, h, w int) {
	k := t.K
	for iy := 0; iy < h; iy++ {
		gy := ((y0+iy)%k + k) % k
		for ix := 0; ix < w; ix++ {
			gx := ((x0+ix)%k + k) % k
			dst[iy*w+ix] = x[gy*k+gx]
		}
	}
}

// applyBoxRef is the stencil application on a dense (h+2b) x (w+2b) source.
func applyBoxRef(t Torus, dst, src []float64, h, w int) {
	b := t.B
	sw := w + 2*b
	for iy := 0; iy < h; iy++ {
		for ix := 0; ix < w; ix++ {
			s := t.Diag * src[(iy+b)*sw+(ix+b)]
			for dy := -b; dy <= b; dy++ {
				row := (iy + b + dy) * sw
				for dx := -b; dx <= b; dx++ {
					if dy == 0 && dx == 0 {
						continue
					}
					s += t.Off * src[row+(ix+b+dx)]
				}
			}
			dst[iy*w+ix] = s
		}
	}
}

// trimBox extracts the (h x w) window at offset (oy,ox) from a row-major
// array of row width stride, copied into a fresh dense slice.
func trimBox(src []float64, oy, ox, h, w, stride int) []float64 {
	out := make([]float64, h*w)
	for iy := 0; iy < h; iy++ {
		copy(out[iy*w:(iy+1)*w], src[(oy+iy)*stride+ox:(oy+iy)*stride+ox+w])
	}
	return out
}

// viewBox is trimBox under the name the halo reads used.
func viewBox(src []float64, oy, ox, h, w, stride int) []float64 {
	return trimBox(src, oy, ox, h, w, stride)
}

// refTorusMatrix and refRingCSR build the CSR by appending, as the
// operators did before presizing.
func refTorusMatrix(t Torus) *CSR {
	n := t.K * t.K
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		ix, iy := i%t.K, i/t.K
		for dy := -t.B; dy <= t.B; dy++ {
			for dx := -t.B; dx <= t.B; dx++ {
				jx := ((ix+dx)%t.K + t.K) % t.K
				jy := ((iy+dy)%t.K + t.K) % t.K
				v := t.Off
				if dx == 0 && dy == 0 {
					v = t.Diag
				}
				m.Col = append(m.Col, jy*t.K+jx)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

func refRingCSR(r Ring) *CSR {
	m := &CSR{N: r.N, RowPtr: make([]int, r.N+1)}
	for i := 0; i < r.N; i++ {
		for off := -r.B; off <= r.B; off++ {
			j := ((i+off)%r.N + r.N) % r.N
			v := r.Off
			if off == 0 {
				v = r.Diag
			}
			m.Col = append(m.Col, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// cacgRef is CACG as it was before the solve-wide buffers: op.Matrix() per
// basis build and fresh basis vectors per outer iteration.
func cacgRef(op Operator, b, x0 []float64, outers int, cfg CACGConfig, t *Traffic) (Result, error) {
	n := op.Size()
	s := cfg.S
	if s < 1 {
		return Result{}, fmt.Errorf("krylov: s must be >= 1, got %d", s)
	}
	if cfg.Block <= 0 {
		cfg.Block = max(1, n/8)
	}
	a := op.Matrix()

	x := append([]float64(nil), x0...)
	w := make([]float64, n)
	t.Begin("setup")
	mulVecRef(a, w, x)
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
	mark := t.Marking()
	iters := 0
	for o := 0; o < outers; o++ {
		if mark {
			t.Begin(outerLabels.Get(o))
		}
		switch cfg.Mode {
		case CACGStored:
			t.Begin("basis")
			basis := buildBasisFullRef(op, p, r, s, rec, t, &flops)
			t.End()
			t.Begin("gram")
			g := gramFullRef(basis, t, &flops)
			t.End()
			t.Begin("inner")
			ph, rh, xh := innerIterations(g, s, rec, &dprv, &flops)
			iters += s
			t.End()
			t.Begin("recover")
			recoverFull(basis, ph, rh, xh, p, r, x, t, &flops)
			t.End()
		case CACGStreaming:
			t.Begin("gram")
			g := gramStreamingRef(op, p, r, s, rec, cfg.Block, t, &flops)
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
	mulVecRef(a, res, x)
	sum := 0.0
	for i := range res {
		d := b[i] - res[i]
		sum += d * d
	}
	return Result{X: x, Iters: iters, Residual: sqrt(sum), FlopCount: flops}, nil
}

func buildBasisFullRef(op Operator, p, r []float64, s int, rec basisRecurrence, t *Traffic, flops *int64) [][]float64 {
	n := op.Size()
	a := op.Matrix()
	inv := 1 / rec.sigma
	basis := make([][]float64, 0, 2*s+1)
	cur := append([]float64(nil), p...)
	t.R(n)
	t.W(n)
	basis = append(basis, cur)
	for j := 0; j < s; j++ {
		next := make([]float64, n)
		mulVecRef(a, next, cur)
		theta := rec.thetas[j]
		for i := range next {
			next[i] = (next[i] - theta*cur[i]) * inv
		}
		t.R(a.NNZ() + n)
		t.W(n)
		*flops += int64(2*a.NNZ() + 2*n)
		basis = append(basis, next)
		cur = next
	}
	cur = append([]float64(nil), r...)
	t.R(n)
	t.W(n)
	basis = append(basis, cur)
	for j := 0; j < s-1; j++ {
		next := make([]float64, n)
		mulVecRef(a, next, cur)
		theta := rec.thetas[j]
		for i := range next {
			next[i] = (next[i] - theta*cur[i]) * inv
		}
		t.R(a.NNZ() + n)
		t.W(n)
		*flops += int64(2*a.NNZ() + 2*n)
		basis = append(basis, next)
		cur = next
	}
	return basis
}

// mulVecRef is CSR.MulVec indexing Val, Col and RowPtr per term.
func mulVecRef(m *CSR, dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("krylov: MulVec length mismatch")
	}
	for i := 0; i < m.N; i++ {
		s := 0.0
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			s += m.Val[idx] * x[m.Col[idx]]
		}
		dst[i] = s
	}
}

// gramFullRef forms G one dot product per pass over the stored basis.
func gramFullRef(basis [][]float64, t *Traffic, flops *int64) [][]float64 {
	dim := len(basis)
	n := len(basis[0])
	g := make([][]float64, dim)
	for i := range g {
		g[i] = make([]float64, dim)
	}
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			v := dotPlain(basis[i], basis[j])
			g[i][j], g[j][i] = v, v
		}
	}
	t.R(dim * n)
	*flops += int64(dim * dim * n)
	return g
}

// gramStreamingRef accumulates G one dot product per pass over each tile,
// adding it to both mirrored entries.
func gramStreamingRef(op Operator, p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64) [][]float64 {
	dim := 2*s + 1
	g := make([][]float64, dim)
	for i := range g {
		g[i] = make([]float64, dim)
	}
	op.basisBlocks(p, r, s, rec, block, t, flops, func(idx []int, cols [][]float64) {
		w := len(idx)
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				v := 0.0
				for e := 0; e < w; e++ {
					v += cols[i][e] * cols[j][e]
				}
				g[i][j] += v
				if i != j {
					g[j][i] += v
				}
			}
		}
		*flops += int64(dim * dim * w)
	})
	return g
}

func (rr refRing) Matrix() *CSR { return refRingCSR(rr.Ring) }

func (rt refTorus) Matrix() *CSR { return refTorusMatrix(rt.Torus) }
