// Package matrix provides dense row-major float64 matrices, block views,
// structured generators (SPD, triangular), and naive reference kernels used
// as ground truth by the write-avoiding algorithms and their tests.
//
// Everything here is deliberately simple and allocation-transparent: a Dense
// is a flat []float64 plus dimensions and a stride, so a block view is a
// re-sliced window of the parent with no copying. The write-avoiding kernels
// in internal/core manipulate blocks through these views while the memory
// models count the traffic.
package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Dense is a row-major matrix view. Data holds at least (Rows-1)*Stride+Cols
// elements; element (i,j) lives at Data[i*Stride+j]. A Dense produced by
// Block aliases its parent's storage.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New allocates a zeroed r-by-c matrix with a tight stride.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(m.Data[i*m.Stride:i*m.Stride+c], row)
	}
	return m
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 {
	if uint(i) >= uint(m.Rows) || uint(j) >= uint(m.Cols) {
		panic(&indexError{"At", i, j, m.Rows, m.Cols})
	}
	return m.Data[i*m.Stride+j]
}

// Set stores v into element (i,j).
func (m *Dense) Set(i, j int, v float64) {
	if uint(i) >= uint(m.Rows) || uint(j) >= uint(m.Cols) {
		panic(&indexError{"Set", i, j, m.Rows, m.Cols})
	}
	m.Data[i*m.Stride+j] = v
}

// row returns row i of the view as a slice of its Cols elements.
func (m *Dense) row(i int) []float64 { return m.Data[i*m.Stride:][:m.Cols] }

// indexError is the panic value of an out-of-range At or Set. Its message is
// built only when printed, which keeps both methods cheap enough to inline
// into every kernel loop.
type indexError struct {
	op         string
	i, j       int
	rows, cols int
}

func (e *indexError) Error() string {
	return fmt.Sprintf("matrix: %s(%d,%d) out of range %dx%d", e.op, e.i, e.j, e.rows, e.cols)
}

// Block returns the r-by-c submatrix view whose top-left corner is (i,j).
// The view aliases m's storage; an empty view (r or c zero) may sit on any
// edge, down to the corner just past the last element. Block inlines, so a view that does not
// outlive its caller stays on the caller's stack.
func (m *Dense) Block(i, j, r, c int) *Dense {
	if i|j|r|c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(&blockError{i, j, r, c, m.Rows, m.Cols})
	}
	// Only a view with no rows can start past the storage (at row Rows).
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[min(i*m.Stride+j, len(m.Data)):]}
}

// blockError is the panic value of an out-of-range Block, formatted only
// when printed, like indexError.
type blockError struct {
	i, j, r, c int
	rows, cols int
}

func (e *blockError) Error() string {
	return fmt.Sprintf("matrix: Block(%d,%d,%d,%d) out of range %dx%d", e.i, e.j, e.r, e.c, e.rows, e.cols)
}

// Clone returns a tight-stride deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// CopyFrom copies src (same shape) into m.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// Zero clears every element of the view.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of the view to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// Identity returns the n-by-n identity.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// Random returns an r-by-c matrix with entries uniform in [-1,1), drawn from
// a deterministic PRNG seeded with seed.
func Random(r, c int, seed uint64) *Dense {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomSPD returns a random symmetric positive-definite n-by-n matrix,
// built as B*Bᵀ + n*I so the Cholesky factor is well conditioned.
func RandomSPD(n int, seed uint64) *Dense {
	b := Random(n, n, seed)
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			m.Set(i, j, s)
			m.Set(j, i, s)
		}
	}
	return m
}

// RandomUpperTriangular returns a random n-by-n upper-triangular matrix with
// diagonal entries bounded away from zero so triangular solves are stable.
func RandomUpperTriangular(n int, seed uint64) *Dense {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 2*rng.Float64() - 1
			if i == j {
				v = 2 + rng.Float64() // diagonal in [2,3)
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// RandomLowerTriangular returns a random n-by-n lower-triangular matrix with
// a well-separated diagonal.
func RandomLowerTriangular(n int, seed uint64) *Dense {
	u := RandomUpperTriangular(n, seed)
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			m.Set(i, j, u.At(j, i))
		}
	}
	return m
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Add stores a+b into m (all same shape; m may alias a or b).
func (m *Dense) Add(a, b *Dense) {
	checkSameShape(a, b)
	checkSameShape(m, a)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, a.At(i, j)+b.At(i, j))
		}
	}
}

// Sub stores a−b into m.
func (m *Dense) Sub(a, b *Dense) {
	checkSameShape(a, b)
	checkSameShape(m, a)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, a.At(i, j)-b.At(i, j))
		}
	}
}

// Scale multiplies every element of the view by s.
func (m *Dense) Scale(s float64) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, s*m.At(i, j))
		}
	}
}

// FrobeniusNorm returns sqrt(Σ m(i,j)²).
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max |a−b| over all elements.
func MaxAbsDiff(a, b *Dense) float64 {
	checkSameShape(a, b)
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}

// EqualWithin reports whether max |a−b| ≤ tol.
func EqualWithin(a, b *Dense, tol float64) bool {
	return MaxAbsDiff(a, b) <= tol
}

func checkSameShape(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Dense{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%9.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
