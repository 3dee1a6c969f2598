package krylov

import "fmt"

// GraphOperator adapts an arbitrary sparse matrix (with symmetric nonzero
// pattern and nonzero diagonal) to the CACG Operator interface. Where Ring
// and Torus derive their streaming ghost zones from mesh geometry, this
// operator derives them from the matrix graph itself by level-set expansion
// — the general matrix-powers dependency computation of the
// communication-avoiding Krylov literature the paper builds on.
type GraphOperator struct {
	m      *CSR
	lo, hi float64

	// Scratch reused across blocks (basisBlocks runs sequentially).
	mark  []int32
	epoch int32
	vals  [][]float64
}

// NewGraphOperator wraps m, computing Gershgorin spectrum bounds. It errors
// if any diagonal entry is missing (the expansion assumes self-dependency)
// or if the pattern is asymmetric: a stored (i, j) without a stored (j, i).
func NewGraphOperator(m *CSR) (*GraphOperator, error) {
	lo, hi := 0.0, 0.0
	first := true
	for i := 0; i < m.N; i++ {
		var diag float64
		var radius float64
		hasDiag := false
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			if j := m.Col[idx]; !m.stored(j, i) {
				return nil, fmt.Errorf("krylov: pattern not symmetric: (%d,%d) is stored but (%d,%d) is not", i, j, j, i)
			}
			if m.Col[idx] == i {
				diag = m.Val[idx]
				hasDiag = true
			} else {
				v := m.Val[idx]
				if v < 0 {
					v = -v
				}
				radius += v
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("krylov: row %d has no diagonal entry", i)
		}
		if first || diag-radius < lo {
			lo = diag - radius
		}
		if first || diag+radius > hi {
			hi = diag + radius
		}
		first = false
	}
	return &GraphOperator{m: m, lo: lo, hi: hi, mark: make([]int32, m.N)}, nil
}

// stored reports whether row i stores column j.
func (m *CSR) stored(i, j int) bool {
	for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
		if m.Col[idx] == j {
			return true
		}
	}
	return false
}

// Size implements Operator.
func (g *GraphOperator) Size() int { return g.m.N }

// Matrix implements Operator.
func (g *GraphOperator) Matrix() *CSR { return g.m }

// NormBound implements Operator (Gershgorin).
func (g *GraphOperator) NormBound() float64 {
	b := g.hi
	if -g.lo > b {
		b = -g.lo
	}
	return b
}

// SpectrumBounds implements Operator.
func (g *GraphOperator) SpectrumBounds() (float64, float64) { return g.lo, g.hi }

// needSets returns need[0..s], where need[j] is the sorted set of rows on
// which the j-th basis vector must be available so that the final power is
// known on the block rows: need[s] = block, need[j] = union of the column
// sets of the rows in need[j+1]. Self-columns keep the sets nested.
func (g *GraphOperator) needSets(block []int32, s int) [][]int32 {
	need := make([][]int32, s+1)
	need[s] = block
	for j := s - 1; j >= 0; j-- {
		g.epoch++
		var set []int32
		for _, i := range need[j+1] {
			for idx := g.m.RowPtr[i]; idx < g.m.RowPtr[i+1]; idx++ {
				c := int32(g.m.Col[idx])
				if g.mark[c] != g.epoch {
					g.mark[c] = g.epoch
					set = append(set, c)
				}
			}
		}
		need[j] = sortInt32(set)
	}
	return need
}

func sortInt32(v []int32) []int32 {
	// Small insertion-friendly sets; a simple quicksort via stdlib-free
	// shell sort keeps dependencies minimal.
	for gap := len(v) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(v); i++ {
			for j := i; j >= gap && v[j-gap] > v[j]; j -= gap {
				v[j-gap], v[j] = v[j], v[j-gap]
			}
		}
	}
	return v
}

// basisBlocks implements Operator: the blockwise streamed basis with
// graph-derived ghost zones. Vector reads charged are the ghost-inflated
// |need[0]| (p side) and |need[1]| (r side, one fewer application); matrix
// reads are charged per touched row at every application level, which is
// the general-graph analogue of re-reading the stencil coefficients.
func (g *GraphOperator) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	n := g.m.N
	if block < 1 {
		block = 1
	}
	inv := 1 / rec.sigma

	// Dense scratch vectors indexed by global row, valid only on the
	// current need set.
	if g.vals == nil {
		g.vals = [][]float64{make([]float64, n), make([]float64, n)}
	}

	for lo := 0; lo < n; lo += block {
		hi := min(n, lo+block)
		blockRows := make([]int32, hi-lo)
		for i := range blockRows {
			blockRows[i] = int32(lo + i)
		}

		needP := g.needSets(blockRows, s)
		colsP := g.powerColumns(p, needP, blockRows, s, rec, inv, t, flops)
		needR := g.needSets(blockRows, s-1)
		colsR := g.powerColumns(r, needR, blockRows, s-1, rec, inv, t, flops)

		idx := make([]int, len(blockRows))
		for i, v := range blockRows {
			idx[i] = int(v)
		}
		fn(idx, append(colsP, colsR...))
	}
}

// powerColumns computes columns 0..steps of the basis restricted to
// blockRows, keeping intermediate powers only on their need sets.
func (g *GraphOperator) powerColumns(src []float64, need [][]int32, blockRows []int32, steps int, rec basisRecurrence, inv float64, t *Traffic, flops *int64) [][]float64 {
	cur, nxt := g.vals[0], g.vals[1]
	for _, i := range need[0] {
		cur[i] = src[i]
	}
	t.R(len(need[0]))
	cols := make([][]float64, 0, steps+1)
	cols = append(cols, gatherRows(cur, blockRows))
	for j := 1; j <= steps; j++ {
		theta := rec.thetas[j-1]
		var nnzTouched int
		for _, i := range need[j] {
			sum := 0.0
			for idx := g.m.RowPtr[i]; idx < g.m.RowPtr[i+1]; idx++ {
				sum += g.m.Val[idx] * cur[g.m.Col[idx]]
			}
			nnzTouched += g.m.RowPtr[i+1] - g.m.RowPtr[i]
			nxt[i] = (sum - theta*cur[i]) * inv
		}
		t.R(nnzTouched)
		*flops += int64(2*nnzTouched + 2*len(need[j]))
		cur, nxt = nxt, cur
		cols = append(cols, gatherRows(cur, blockRows))
	}
	g.vals[0], g.vals[1] = cur, nxt
	return cols
}

func gatherRows(v []float64, rows []int32) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = v[r]
	}
	return out
}
