package krylov

import "fmt"

// Torus is a (2b+1)^2-point box stencil on a K x K periodic mesh — the d=2
// instance of the paper's Section 8 example, where the streaming matrix
// powers achieve f(s) = Theta(s) for s = Theta(M1^(1/d)/b). Mesh point (y,x)
// has linear index y*K+x.
type Torus struct {
	K, B      int
	Diag, Off float64
}

// NewTorus builds a diagonally-dominant SPD box-stencil torus.
func NewTorus(k, b int) Torus {
	if k < 2*b+1 {
		panic(fmt.Sprintf("krylov: torus k=%d too small for bandwidth %d", k, b))
	}
	pts := (2*b + 1) * (2*b + 1)
	return Torus{K: k, B: b, Diag: float64(pts), Off: -0.5}
}

// Size returns K*K (implements Operator).
func (t Torus) Size() int { return t.K * t.K }

// Matrix materializes the CSR form (implements Operator).
func (t Torus) Matrix() *CSR {
	n := t.K * t.K
	nnz := n * (2*t.B + 1) * (2*t.B + 1)
	m := &CSR{N: n, RowPtr: make([]int, n+1), Col: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
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

// NormBound is the Gershgorin bound on ||A||_2 (implements Operator).
func (t Torus) NormBound() float64 {
	off := t.Off
	if off < 0 {
		off = -off
	}
	pts := (2*t.B+1)*(2*t.B+1) - 1
	return t.Diag + float64(pts)*off
}

// SpectrumBounds returns Gershgorin interval bounds (implements Operator).
func (t Torus) SpectrumBounds() (lo, hi float64) {
	off := t.Off
	if off < 0 {
		off = -off
	}
	pts := float64((2*t.B+1)*(2*t.B+1) - 1)
	return t.Diag - pts*off, t.Diag + pts*off
}

// gatherBox copies the periodic (h x w) box anchored at mesh (y0,x0) into a
// row-major local array. Each box row is its mesh row read from column x0
// mod K onwards, wrapping to column 0 as often as the box is wider than the
// rest of the row: one copy per wrapped segment.
func (t Torus) gatherBox(dst, x []float64, y0, x0, h, w int) {
	k := t.K
	gy, gx := ((y0%k)+k)%k, ((x0%k)+k)%k
	for iy := 0; iy < h; iy++ {
		row := x[gy*k : gy*k+k]
		out := dst[iy*w : iy*w+w]
		n := copy(out, row[gx:])
		for n < w {
			n += copy(out[n:], row)
		}
		gy++
		if gy == k {
			gy = 0
		}
	}
}

// applyBox applies the stencil: src is (h+2b) x (w+2b) row-major covering
// the halo-inflated box; dst is h x w. Each output row starts as Diag times
// its centre row and then adds Off times the shifted source row of each
// other stencil cell, in row-major order, two cells per pass: the cells
// before the centre, then the cells after it, 2b(b+1) of each. So every
// element sums the same terms in the same order as a per-element loop.
func (t Torus) applyBox(dst, src []float64, h, w int) {
	b := t.B
	sw := w + 2*b
	half := 2 * b * (b + 1)
	for iy := 0; iy < h; iy++ {
		out := dst[iy*w : iy*w+w]
		rows := src[iy*sw:] // the 2b+1 source rows of output row iy
		for ix, v := range rows[b*sw+b:][:w] {
			out[ix] = t.Diag * v
		}
		addCells(out, t.Off, rows, sw, 2*b+1, 0, 0, half)
		addCells(out, t.Off, rows, sw, 2*b+1, b, b+1, half)
	}
}

// addCells adds a times the source row of each of count cells of an n x n
// stencil to out, row-major from cell (dy, dx), two cells per pass; the
// stencil's rows are sw apart in rows, and count is even.
func addCells(out []float64, a float64, rows []float64, sw, n, dy, dx, count int) {
	for c := 0; c < count; c += 2 {
		x0 := rows[dy*sw+dx:][:len(out)]
		if dx++; dx == n {
			dx, dy = 0, dy+1
		}
		x1 := rows[dy*sw+dx:][:len(out)]
		if dx++; dx == n {
			dx, dy = 0, dy+1
		}
		for i, v := range out {
			v += a * x0[i]
			out[i] = v + a*x1[i]
		}
	}
}

// basisBlocks computes the 2s+1 basis columns tile by tile (implements
// Operator): each tile of edge `block` is inflated by a halo of s*b mesh
// points on every side, read from slow memory, and the powers are computed
// locally with the halo shrinking by b per application. The redundant halo
// reads are exactly the paper's "ghost zone" surface-to-volume overhead.
//
// One source buffer, two power buffers and the column windows are
// allocated per call and reused by every tile. Each power is the halo
// window of the next one, so applyBox reads it in place; the column handed
// to fn is its centered tile, copied densely.
func (t Torus) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, traffic *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	k := t.K
	bw := t.B
	block = min(block, k)
	inv := 1 / rec.sigma
	ghost := s * bw
	se := block + 2*ghost // a full tile's source edge
	pe := se - 2*bw       // its first power's edge, the largest
	src := make([]float64, se*se)
	pow := [2][]float64{make([]float64, pe*pe), make([]float64, pe*pe)}
	tile := block * block
	store := make([]float64, (2*s+1)*tile)
	cols := make([][]float64, 2*s+1)
	idx := make([]int, tile)

	for y0 := 0; y0 < k; y0 += block {
		h := min(block, k-y0)
		for x0 := 0; x0 < k; x0 += block {
			w := min(block, k-x0)
			for c := range cols {
				cols[c] = store[c*tile : c*tile+h*w]
			}
			eh, ew := h+2*ghost, w+2*ghost
			for side, v := range [2][]float64{p, r} {
				// P-side: s powers of p; R-side: s-1 powers of r.
				out := cols[side*(s+1):]
				t.gatherBox(src[:eh*ew], v, y0-ghost, x0-ghost, eh, ew)
				traffic.R(eh * ew)
				copyBox(out[0], src, ghost, ghost, h, w, ew)
				cur, cw := src, ew // cur's row width: w+2*(its halo)
				for j := 1; j <= s-side; j++ {
					ng := ghost - j*bw
					nh, nw := h+2*ng, w+2*ng
					next := pow[j%2][:nh*nw]
					t.applyBox(next, cur, nh, nw)
					theta := rec.thetas[j-1]
					// Shift by theta*cur on next's window of cur, then scale.
					for iy := 0; iy < nh; iy++ {
						row := next[iy*nw : (iy+1)*nw]
						win := cur[(iy+bw)*cw+bw:][:nw]
						for ix := range row {
							row[ix] = (row[ix] - theta*win[ix]) * inv
						}
					}
					*flops += int64(nh * nw * ((2*bw+1)*(2*bw+1) + 2))
					copyBox(out[j], next, ng, ng, h, w, nw)
					cur, cw = next, nw
				}
			}
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					idx[iy*w+ix] = (y0+iy)*k + (x0 + ix)
				}
			}
			fn(idx[:h*w], cols)
		}
	}
}

// copyBox copies the (h x w) window at offset (oy,ox) of a row-major array
// of row width stride into the dense dst.
func copyBox(dst, src []float64, oy, ox, h, w, stride int) {
	for iy := 0; iy < h; iy++ {
		copy(dst[iy*w:(iy+1)*w], src[(oy+iy)*stride+ox:(oy+iy)*stride+ox+w])
	}
}
