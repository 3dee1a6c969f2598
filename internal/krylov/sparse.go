// Package krylov implements Section 8 of "Write-Avoiding Algorithms"
// (Carson et al., 2015): the conjugate gradient method (Algorithm 6), its
// communication-avoiding s-step variant CA-CG (Algorithm 7) with a monomial
// basis, and the *streaming matrix powers* reorganization that reduces
// writes to slow memory by Theta(s) at the cost of computing the Krylov
// basis twice.
//
// Vector traffic between fast memory (size M1) and slow memory is metered by
// an explicit Traffic counter: the quantity W12 of the paper.
package krylov

import (
	"fmt"
	"math"

	"writeavoid/internal/machine"
)

// CSR is a compressed-sparse-row square matrix.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes dst = m*x, summing each row's terms in stored order.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("krylov: MulVec length mismatch")
	}
	rowPtr := m.RowPtr[:len(dst)+1]
	for i := range dst {
		cols := m.Col[rowPtr[i]:rowPtr[i+1]]
		vals := m.Val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		s := 0.0
		for j, c := range cols {
			s += vals[j] * x[c]
		}
		dst[i] = s
	}
}

// Ring is a (2b+1)-point stencil on a 1-D periodic mesh of n points: the
// paper's model operator for the matrix-powers analysis (d=1). Row i has
// Diag on the diagonal and Off at the 2b neighbors within distance b
// (wrapping). With Diag > 2b*|Off| it is symmetric positive definite.
type Ring struct {
	N, B      int
	Diag, Off float64
}

// NewRing builds a diagonally-dominant SPD ring stencil.
func NewRing(n, b int) Ring {
	if n < 2*b+1 {
		panic(fmt.Sprintf("krylov: ring n=%d too small for bandwidth %d", n, b))
	}
	return Ring{N: n, B: b, Diag: float64(2*b) + 1, Off: -0.5}
}

// Size returns the number of mesh points (implements Operator).
func (r Ring) Size() int { return r.N }

// Matrix returns the CSR form (implements Operator).
func (r Ring) Matrix() *CSR { return r.CSR() }

// NormBound returns a Gershgorin upper bound on ||A||_2, used to scale the
// monomial Krylov basis (rho_j(A) = (A/sigma)^j) so its conditioning stays
// manageable at larger s — the basis-choice remedy the paper alludes to.
func (r Ring) NormBound() float64 {
	off := r.Off
	if off < 0 {
		off = -off
	}
	return r.Diag + 2*float64(r.B)*off
}

// SpectrumBounds returns Gershgorin bounds [lo, hi] on the ring's (real,
// symmetric) spectrum, used to place the Newton-basis shifts.
func (r Ring) SpectrumBounds() (lo, hi float64) {
	off := r.Off
	if off < 0 {
		off = -off
	}
	return r.Diag - 2*float64(r.B)*off, r.Diag + 2*float64(r.B)*off
}

// CSR materializes the stencil as a general sparse matrix.
func (r Ring) CSR() *CSR {
	nnz := r.N * (2*r.B + 1)
	m := &CSR{N: r.N, RowPtr: make([]int, r.N+1), Col: make([]int, 0, nnz), Val: make([]float64, 0, nnz)}
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

// Apply computes one stencil application on an interval working array: given
// src covering mesh indices [lo-b, hi+b) (without wraparound in the array,
// the caller supplies ghost values), it writes A*src into dst covering
// [lo, hi). len(src) must be hi-lo+2b and len(dst) hi-lo.
func (r Ring) Apply(dst, src []float64) {
	w := len(dst)
	if len(src) != w+2*r.B {
		panic("krylov: Apply ghost width mismatch")
	}
	for i := 0; i < w; i++ {
		s := r.Diag * src[i+r.B]
		for off := 1; off <= r.B; off++ {
			s += r.Off * (src[i+r.B-off] + src[i+r.B+off])
		}
		dst[i] = s
	}
}

// Gather copies mesh interval [lo, lo+len(dst)) of x (periodic) into dst:
// x from lo mod N onwards, wrapping to index 0 as often as dst is longer
// than the rest of x, one copy per wrapped segment.
func (r Ring) Gather(dst, x []float64, lo int) {
	x = x[:r.N]
	n := copy(dst, x[(lo%r.N+r.N)%r.N:])
	for n < len(dst) {
		n += copy(dst[n:], x)
	}
}

// Mesh2D is a (2b+1)^2-point (box) stencil on a k x k periodic mesh,
// materialized as CSR; used by the Poisson-style examples.
func Mesh2D(k, b int) *CSR {
	n := k * k
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	pts := (2*b + 1) * (2*b + 1)
	diag := float64(pts) // strictly dominant over (pts-1) off entries of -1
	for i := 0; i < n; i++ {
		ix, iy := i%k, i/k
		for dy := -b; dy <= b; dy++ {
			for dx := -b; dx <= b; dx++ {
				jx := ((ix+dx)%k + k) % k
				jy := ((iy+dy)%k + k) % k
				v := -1.0
				if dx == 0 && dy == 0 {
					v = diag
				}
				m.Col = append(m.Col, jy*k+jx)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// Traffic counts vector words moved between fast and slow memory; Writes is
// the paper's W12.
type Traffic struct {
	Reads  int64
	Writes int64
	// Rec, when non-nil, additionally receives every charge as an EvLoad or
	// EvStore at interface 0, plus the solvers' Begin/End phase marks, so an
	// attribution recorder (a profile.SpanRecorder's ledger) can split the
	// W12 totals by solver phase. The plain counters above are unaffected.
	// Each charge is recorded at once as a one-event block and nothing is
	// synced: a caller that interleaves charges with hierarchies buffering
	// events for the same recorder syncs it first (experiments.Session's
	// krylov section drives no hierarchy and starts with a phase mark,
	// which syncs).
	Rec machine.Recorder
	one [1]machine.Event // the block each charge is recorded in
}

// record hands e to Rec as a one-event block held in t, so no charge
// allocates.
func (t *Traffic) record(e machine.Event) {
	t.one[0] = e
	t.Rec.Record(t.one[:])
}

// R charges n words read from slow memory.
func (t *Traffic) R(n int) {
	t.Reads += int64(n)
	if t.Rec != nil {
		t.record(machine.Event{Kind: machine.EvLoad, Words: int64(n)})
	}
}

// W charges n words written to slow memory.
func (t *Traffic) W(n int) {
	t.Writes += int64(n)
	if t.Rec != nil {
		t.record(machine.Event{Kind: machine.EvStore, Words: int64(n)})
	}
}

// Begin opens a named phase span on the attached recorder; a no-op without
// one.
func (t *Traffic) Begin(label string) {
	if t.Rec != nil {
		t.record(machine.Event{Kind: machine.EvBegin, Label: label})
	}
}

// End closes the innermost open span; a no-op without a recorder.
func (t *Traffic) End() {
	if t.Rec != nil {
		t.record(machine.Event{Kind: machine.EvEnd})
	}
}

// Marking reports whether phase labels are worth formatting.
func (t *Traffic) Marking() bool { return t.Rec != nil }

// Dot is an instrumented dot product (2n reads, no slow writes).
func Dot(t *Traffic, a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	t.R(2 * len(a))
	return s
}

// Axpy computes y += alpha*x (reads x and y, writes y).
func Axpy(t *Traffic, alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
	t.R(2 * len(y))
	t.W(len(y))
}

// XpbyInto computes y = x + beta*y (reads both, writes y).
func XpbyInto(t *Traffic, x []float64, beta float64, y []float64) {
	for i := range y {
		y[i] = x[i] + beta*y[i]
	}
	t.R(2 * len(y))
	t.W(len(y))
}

// Norm2 returns the Euclidean norm (counted as one dot).
func Norm2(t *Traffic, x []float64) float64 { return math.Sqrt(Dot(t, x, x)) }
