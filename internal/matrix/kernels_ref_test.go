package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// Reference kernels: the matmul loops as they were, two bounds-checked At
// calls per term, kept as the slow reference the row-slice kernels are
// checked against bit for bit.

func refMulAdd(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
}

func refMulSub(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s -= a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
}

func refMulSubTrans(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s -= a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
}

func refMulSubTransLower(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j <= i; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s -= a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
}

// specials are mixed into the operands so the sums pass through signed
// zeros, infinities and cancellation, where any change in order shows.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, 3}

// view returns an r x c block of a larger random matrix, so rows sit a wider
// stride apart than their length (a tight matrix when r or c is 0).
func view(r, c int, rng *rand.Rand) *Dense {
	pr, pc := r+1+rng.IntN(3), c+1+rng.IntN(3)
	p := New(pr, pc)
	for i := range p.Data {
		p.Data[i] = 2*rng.Float64() - 1
		if rng.IntN(8) == 0 {
			p.Data[i] = specials[rng.IntN(len(specials))]
		}
	}
	// Any offset, the last row's included, except a 0-row view below the
	// last row, which Block cannot slice.
	top := pr - r + 1
	if r == 0 {
		top--
	}
	return p.Block(rng.IntN(top), rng.IntN(pc-c+1), r, c)
}

func sameDense(a, b *Dense) bool {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// Each row-slice kernel leaves C bit for bit as the At-based reference does,
// on strided block views, on empty shapes (0 x k, k x 0 and an empty inner
// dimension), and without touching anything outside C's view: every word
// of C's storage, the gaps between its rows and the parent's words after
// them included, must match.
func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	kernels := []struct {
		name     string
		got, ref func(c, a, b *Dense)
		trans    bool // B is n x k, read by rows
		square   bool // C must be square
	}{
		{"MulAdd", MulAdd, refMulAdd, false, false},
		{"MulSub", MulSub, refMulSub, false, false},
		{"MulSubTrans", MulSubTrans, refMulSubTrans, true, false},
		{"MulSubTransLower", MulSubTransLower, refMulSubTransLower, true, true},
	}
	dims := []int{0, 1, 2, 3, 5, 8, 13}
	for _, kn := range kernels {
		for _, m := range dims {
			for _, n := range dims {
				if kn.square && m != n {
					continue
				}
				for _, k := range dims {
					a := view(m, k, rng)
					b := view(k, n, rng)
					if kn.trans {
						b = view(n, k, rng)
					}
					c := view(m, n, rng)
					// Run both on copies of C's storage.
					cg := &Dense{Rows: c.Rows, Cols: c.Cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
					cw := &Dense{Rows: c.Rows, Cols: c.Cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
					kn.got(cg, a, b)
					kn.ref(cw, a, b)
					name := fmt.Sprintf("%s m=%d n=%d k=%d", kn.name, m, n, k)
					if !sameDense(cg, cw) {
						t.Fatalf("%s: C differs from the reference", name)
					}
					for i := range cg.Data {
						if math.Float64bits(cg.Data[i]) != math.Float64bits(cw.Data[i]) {
							t.Fatalf("%s: storage word %d outside the reference's writes differs", name, i)
						}
					}
				}
			}
		}
	}
}
