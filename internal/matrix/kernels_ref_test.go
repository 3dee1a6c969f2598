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

// The one-accumulator row-slice kernels as they were before the four-column
// passes, kept as the reference those are checked against bit for bit.

func oneColMulAdd(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		ci, ai := c.row(i), a.row(i)
		for j := range ci {
			s := ci[j]
			for k, aik := range ai {
				s += aik * b.Data[k*b.Stride+j]
			}
			ci[j] = s
		}
	}
}

func oneColMulSub(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		ci, ai := c.row(i), a.row(i)
		for j := range ci {
			s := ci[j]
			for k, aik := range ai {
				s -= aik * b.Data[k*b.Stride+j]
			}
			ci[j] = s
		}
	}
}

func oneColSubDots(ci, ai []float64, b *Dense) {
	for j := range ci {
		bj := b.row(j)[:len(ai)]
		s := ci[j]
		for k, aik := range ai {
			s -= aik * bj[k]
		}
		ci[j] = s
	}
}

func oneColMulSubTrans(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		oneColSubDots(c.row(i), a.row(i), b)
	}
}

func oneColMulSubTransLower(c, a, b *Dense) {
	for i := 0; i < c.Rows; i++ {
		oneColSubDots(c.row(i)[:i+1], a.row(i), b)
	}
}

// The four-column kernels against the one-column loops they replaced, bit
// for bit (math.Float64bits, so NaN payloads and the signs of zeros count):
// every m, n and k from 0 to 17, which covers each remainder mod 4 of the
// column count, on strided block views whose operands mix ±0, ±Inf, NaN,
// subnormals and overflow-prone magnitudes into the sums. Every word of C's
// storage must match, so neither kernel writes outside C's view. A NaN
// result only has to be a NaN on both sides: when two NaNs with different
// payloads meet (an input NaN and one an Inf*0 or Inf-Inf made), which
// payload an add or multiply keeps follows the operand order the compiler
// picks, which Go leaves open, and which differs between these loops and
// between a -race build and a plain one.
func TestFourColumnKernelsMatchOneColumn(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	odd := append([]float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_0bad), 5e-324, -5e-324, 2.2250738585072e-309}, specials...)
	oddView := func(r, c int) *Dense {
		v := view(r, c, rng)
		for i := range v.Data {
			if rng.IntN(6) == 0 {
				v.Data[i] = odd[rng.IntN(len(odd))]
			}
		}
		return v
	}
	kernels := []struct {
		name          string
		got, ref      func(c, a, b *Dense)
		trans, square bool
	}{
		{"MulAdd", MulAdd, oneColMulAdd, false, false},
		{"MulSub", MulSub, oneColMulSub, false, false},
		{"MulSubTrans", MulSubTrans, oneColMulSubTrans, true, false},
		{"MulSubTransLower", MulSubTransLower, oneColMulSubTransLower, true, true},
	}
	for _, kn := range kernels {
		for m := 0; m <= 17; m++ {
			for n := 0; n <= 17; n++ {
				if kn.square && m != n {
					continue
				}
				for k := 0; k <= 17; k++ {
					a, b := oddView(m, k), oddView(k, n)
					if kn.trans {
						b = oddView(n, k)
					}
					c := oddView(m, n)
					cg := &Dense{Rows: c.Rows, Cols: c.Cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
					cw := &Dense{Rows: c.Rows, Cols: c.Cols, Stride: c.Stride, Data: append([]float64(nil), c.Data...)}
					kn.got(cg, a, b)
					kn.ref(cw, a, b)
					for i := range cg.Data {
						x, y := cg.Data[i], cw.Data[i]
						if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
							t.Fatalf("%s m=%d n=%d k=%d: storage word %d is %#x, reference %#x",
								kn.name, m, n, k, i, math.Float64bits(cg.Data[i]), math.Float64bits(cw.Data[i]))
						}
					}
				}
			}
		}
	}
}

func BenchmarkMulAdd(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		rng := rand.New(rand.NewPCG(1, 2))
		x, y, z := view(n, n, rng), view(n, n, rng), view(n, n, rng)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulAdd(z, x, y)
			}
		})
	}
}
