package matrix

import (
	"fmt"
	"math"
)

// Reference kernels. These are the unblocked ground-truth implementations the
// write-avoiding blocked algorithms are validated against, and they double as
// the "fits entirely in fast memory" base-case kernels of internal/core.

// The four matmul kernels run i, j, k loops with k innermost, each C(i,j)
// summing its terms in k order, over row slices of the operands: one bounds
// check per term at most, where At/Set pairs cost two. They compute four C
// elements of a row per pass over k, each in its own accumulator, so the
// four sums overlap instead of each add waiting on the one before, and
// MulAdd and MulSub read four adjacent words of B's row k per term instead
// of one. Every element still adds the same terms in the same k order, so
// the results are bit for bit those of one element at a time (Go fuses no
// multiply-add on amd64; where it fuses, as on arm64, it fuses both forms
// alike), NaN payloads aside: where two NaNs with different payloads meet,
// the one kept follows the operand order the compiler picks. The traced twins in internal/core emit the per-element i, j, k
// order of the paper's kernel, which gives every element this arithmetic.

// MulAdd computes C += A*B with classical triple loops (k innermost).
func MulAdd(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulAdd shape mismatch C %dx%d = A %dx%d * B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < c.Rows; i++ {
		ci, ai := c.row(i), a.row(i)
		j := 0
		for ; j+4 <= len(ci); j += 4 {
			s0, s1, s2, s3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
			for k, aik := range ai {
				bk := b.Data[k*b.Stride+j:][:4]
				s0 += aik * bk[0]
				s1 += aik * bk[1]
				s2 += aik * bk[2]
				s3 += aik * bk[3]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < len(ci); j++ {
			s := ci[j]
			for k, aik := range ai {
				s += aik * b.Data[k*b.Stride+j]
			}
			ci[j] = s
		}
	}
}

// MulSub computes C −= A*B.
func MulSub(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("matrix: MulSub shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		ci, ai := c.row(i), a.row(i)
		j := 0
		for ; j+4 <= len(ci); j += 4 {
			s0, s1, s2, s3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
			for k, aik := range ai {
				bk := b.Data[k*b.Stride+j:][:4]
				s0 -= aik * bk[0]
				s1 -= aik * bk[1]
				s2 -= aik * bk[2]
				s3 -= aik * bk[3]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < len(ci); j++ {
			s := ci[j]
			for k, aik := range ai {
				s -= aik * b.Data[k*b.Stride+j]
			}
			ci[j] = s
		}
	}
}

// Mul returns A*B as a fresh matrix.
func Mul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	MulAdd(c, a, b)
	return c
}

// MulSubTrans computes C −= A*Bᵀ (used by Cholesky's SYRK/GEMM updates).
func MulSubTrans(c, a, b *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("matrix: MulSubTrans shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		subDots(c.row(i), a.row(i), b)
	}
}

// MulSubTransLower computes the lower triangle (including the diagonal) of
// square C −= A*Bᵀ, leaving the strict upper triangle untouched — the SYRK
// flavor Cholesky's diagonal update needs, since the factorization never
// reads above the diagonal.
func MulSubTransLower(c, a, b *Dense) {
	if c.Rows != c.Cols || a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("matrix: MulSubTransLower shape mismatch")
	}
	for i := 0; i < c.Rows; i++ {
		subDots(c.row(i)[:i+1], a.row(i), b)
	}
}

// subDots computes ci[j] −= ai·B(j,:) for every j of ci, the row dot
// products of the transposed kernels, four rows of B per pass.
func subDots(ci, ai []float64, b *Dense) {
	n := len(ai)
	j := 0
	for ; j+4 <= len(ci); j += 4 {
		b0, b1, b2, b3 := b.row(j)[:n], b.row(j + 1)[:n], b.row(j + 2)[:n], b.row(j + 3)[:n]
		s0, s1, s2, s3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
		for k, aik := range ai {
			s0 -= aik * b0[k]
			s1 -= aik * b1[k]
			s2 -= aik * b2[k]
			s3 -= aik * b3[k]
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
	}
	for ; j < len(ci); j++ {
		bj := b.row(j)[:n]
		s := ci[j]
		for k, aik := range ai {
			s -= aik * bj[k]
		}
		ci[j] = s
	}
}

// TRSMUpperLeft solves T*X = B for X where T is upper triangular, overwriting
// B with X (the paper's Algorithm 2 base case: back substitution over the
// columns of B).
func TRSMUpperLeft(t, b *Dense) {
	if t.Rows != t.Cols || t.Rows != b.Rows {
		panic("matrix: TRSMUpperLeft shape mismatch")
	}
	n := t.Rows
	for j := 0; j < b.Cols; j++ {
		for i := n - 1; i >= 0; i-- {
			s := b.At(i, j)
			for k := i + 1; k < n; k++ {
				s -= t.At(i, k) * b.At(k, j)
			}
			d := t.At(i, i)
			if d == 0 {
				panic("matrix: TRSMUpperLeft singular diagonal")
			}
			b.Set(i, j, s/d)
		}
	}
}

// TRSMLowerTransRight solves X*Lᵀ = B for X where L is lower triangular,
// overwriting B with X. This is the TRSM flavor the left-looking Cholesky
// needs: A(j,i) = A(j,i) * L(i,i)⁻ᵀ.
func TRSMLowerTransRight(l, b *Dense) {
	if l.Rows != l.Cols || l.Rows != b.Cols {
		panic("matrix: TRSMLowerTransRight shape mismatch")
	}
	n := l.Rows
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < n; j++ {
			s := b.At(i, j)
			for k := 0; k < j; k++ {
				s -= b.At(i, k) * l.At(j, k)
			}
			d := l.At(j, j)
			if d == 0 {
				panic("matrix: TRSMLowerTransRight singular diagonal")
			}
			b.Set(i, j, s/d)
		}
	}
}

// TRSMUpperRightPacked solves X*U = B for X, overwriting B, where U is the
// upper-triangular factor stored in an LUInPlace-packed block.
func TRSMUpperRightPacked(packed, b *Dense) {
	if packed.Rows != packed.Cols || packed.Rows != b.Cols {
		panic("matrix: TRSMUpperRightPacked shape mismatch")
	}
	n := packed.Rows
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < n; j++ {
			s := b.At(i, j)
			for t := 0; t < j; t++ {
				s -= b.At(i, t) * packed.At(t, j)
			}
			d := packed.At(j, j)
			if d == 0 {
				panic("matrix: zero pivot in packed U")
			}
			b.Set(i, j, s/d)
		}
	}
}

// TRSMUnitLowerLeftPacked solves L*X = B for X, overwriting B, where L is
// the unit-lower-triangular factor stored in an LUInPlace-packed block.
func TRSMUnitLowerLeftPacked(packed, b *Dense) {
	if packed.Rows != packed.Cols || packed.Rows != b.Rows {
		panic("matrix: TRSMUnitLowerLeftPacked shape mismatch")
	}
	n := packed.Rows
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			s := b.At(i, j)
			for t := 0; t < i; t++ {
				s -= packed.At(i, t) * b.At(t, j)
			}
			b.Set(i, j, s) // unit diagonal
		}
	}
}

// CholeskyInPlace overwrites the lower triangle of SPD matrix A with its
// Cholesky factor L (A = L*Lᵀ); the strict upper triangle is zeroed.
// It returns an error if A is not positive definite.
func CholeskyInPlace(a *Dense) error {
	if a.Rows != a.Cols {
		panic("matrix: CholeskyInPlace non-square")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= a.At(j, k) * a.At(j, k)
		}
		if d <= 0 {
			return fmt.Errorf("matrix: not positive definite at pivot %d (d=%g)", j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// LUInPlace overwrites A with its LU factorization without pivoting: the
// strict lower triangle holds L (unit diagonal implied) and the upper
// triangle holds U. It returns an error on a zero pivot.
func LUInPlace(a *Dense) error {
	if a.Rows != a.Cols {
		panic("matrix: LUInPlace non-square")
	}
	n := a.Rows
	for k := 0; k < n; k++ {
		p := a.At(k, k)
		if p == 0 {
			return fmt.Errorf("matrix: zero pivot at %d", k)
		}
		for i := k + 1; i < n; i++ {
			l := a.At(i, k) / p
			a.Set(i, k, l)
			for j := k + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)-l*a.At(k, j))
			}
		}
	}
	return nil
}

// SplitLU extracts L (unit lower) and U (upper) from an LUInPlace result.
func SplitLU(a *Dense) (l, u *Dense) {
	n := a.Rows
	l = Identity(n)
	u = New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, a.At(i, j))
			} else {
				u.Set(i, j, a.At(i, j))
			}
		}
	}
	return l, u
}

// ResidualMul returns ‖C − A*B‖_F / max(1, ‖C‖_F), a scale-aware check that
// C = A*B.
func ResidualMul(c, a, b *Dense) float64 {
	ref := Mul(a, b)
	diff := New(c.Rows, c.Cols)
	diff.Sub(c, ref)
	den := c.FrobeniusNorm()
	if den < 1 {
		den = 1
	}
	return diff.FrobeniusNorm() / den
}
