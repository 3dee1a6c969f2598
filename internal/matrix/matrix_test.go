package matrix

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 7)
	m.Set(2, 3, 42.5)
	if got := m.At(2, 3); got != 42.5 {
		t.Fatalf("got %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestOutOfRangePanicMessages(t *testing.T) {
	for _, tc := range []struct {
		f    func()
		want string
	}{
		{func() { New(2, 3).At(2, 0) }, "matrix: At(2,0) out of range 2x3"},
		{func() { New(2, 3).At(0, -1) }, "matrix: At(0,-1) out of range 2x3"},
		{func() { New(2, 3).Set(-1, 1, 0) }, "matrix: Set(-1,1) out of range 2x3"},
		{func() { New(2, 3).Set(1, 3, 0) }, "matrix: Set(1,3) out of range 2x3"},
		{func() { New(4, 4).Block(2, 2, 3, 1) }, "matrix: Block(2,2,3,1) out of range 4x4"},
		{func() { New(4, 4).Block(-1, 0, 1, 1) }, "matrix: Block(-1,0,1,1) out of range 4x4"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Errorf("panic %q, want %q", got, tc.want)
				}
			}()
			tc.f()
		}()
	}
}

func TestBlockAliasesParent(t *testing.T) {
	m := New(6, 6)
	blk := m.Block(2, 3, 2, 2)
	blk.Set(0, 0, 9)
	if m.At(2, 3) != 9 {
		t.Fatal("block view must alias parent storage")
	}
	if blk.Rows != 2 || blk.Cols != 2 || blk.Stride != 6 {
		t.Fatalf("bad block: %+v", blk)
	}
}

func TestBlockOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 4).Block(2, 2, 3, 1)
}

// Every in-range empty block is an r-by-c view on the parent's stride, on
// any edge and on sub-views whose storage ends early; out-of-range blocks,
// empty or not, panic with the package's blockError.
func TestBlockEdges(t *testing.T) {
	sub := func() *Dense { return New(4, 4).Block(2, 2, 2, 2) } // storage ends at its last element
	for _, tc := range []struct {
		name       string
		m          func() *Dense
		i, j, r, c int
		ok         bool
	}{
		{"below the last row", func() *Dense { return New(2, 3) }, 2, 1, 0, 2, true},
		{"below, left column", func() *Dense { return New(2, 3) }, 2, 0, 0, 3, true},
		{"past the last element", func() *Dense { return New(2, 3) }, 2, 3, 0, 0, true},
		{"right of the last column", func() *Dense { return New(2, 3) }, 0, 3, 2, 0, true},
		{"right, last row", func() *Dense { return New(2, 3) }, 1, 3, 1, 0, true},
		{"empty inside", func() *Dense { return New(2, 3) }, 1, 1, 0, 0, true},
		{"sub-view below", sub, 2, 0, 0, 2, true},
		{"sub-view below, inner column", sub, 2, 1, 0, 1, true},
		{"sub-view corner", sub, 2, 2, 0, 0, true},
		{"sub-view right", sub, 0, 2, 2, 0, true},
		{"sub-view last element", sub, 1, 1, 1, 1, true},
		{"empty matrix", func() *Dense { return New(0, 0) }, 0, 0, 0, 0, true},
		{"row past the end", func() *Dense { return New(2, 3) }, 3, 0, 0, 1, false},
		{"column past the end", func() *Dense { return New(2, 3) }, 0, 4, 1, 0, false},
		{"negative row", func() *Dense { return New(2, 3) }, -1, 0, 0, 0, false},
		{"negative count", func() *Dense { return New(2, 3) }, 0, 0, -1, 0, false},
		{"too wide from the bottom", func() *Dense { return New(2, 3) }, 2, 1, 0, 3, false},
		{"sub-view too deep", sub, 2, 0, 1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m()
			defer func() {
				e := recover()
				if _, isBlock := e.(*blockError); tc.ok && e != nil || !tc.ok && !isBlock {
					t.Fatalf("Block(%d,%d,%d,%d) of %dx%d: panic %v", tc.i, tc.j, tc.r, tc.c, m.Rows, m.Cols, e)
				}
			}()
			v := m.Block(tc.i, tc.j, tc.r, tc.c)
			if v.Rows != tc.r || v.Cols != tc.c || v.Stride != m.Stride {
				t.Fatalf("view %dx%d stride %d, want %dx%d stride %d", v.Rows, v.Cols, v.Stride, tc.r, tc.c, m.Stride)
			}
			for i := 0; i < v.Rows; i++ {
				if got := len(v.row(i)); got != v.Cols {
					t.Fatalf("row %d has %d elements, want %d", i, got, v.Cols)
				}
			}
			if v.Rows > 0 && v.Cols > 0 {
				v.Set(v.Rows-1, v.Cols-1, 7)
				if m.At(tc.i+v.Rows-1, tc.j+v.Cols-1) != 7 {
					t.Fatal("view does not alias its parent")
				}
			}
		})
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Random(4, 5, 1)
	c := m.Clone()
	c.Set(0, 0, 1e9)
	if m.At(0, 0) == 1e9 {
		t.Fatal("clone shares storage")
	}
	if c.Stride != c.Cols {
		t.Fatal("clone should have tight stride")
	}
}

func TestCopyFromBlock(t *testing.T) {
	src := Random(3, 3, 2)
	dst := New(8, 8)
	dst.Block(1, 1, 3, 3).CopyFrom(src)
	if MaxAbsDiff(dst.Block(1, 1, 3, 3), src) != 0 {
		t.Fatal("block copy mismatch")
	}
	if dst.At(0, 0) != 0 || dst.At(4, 4) != 0 {
		t.Fatal("copy spilled outside block")
	}
}

func TestIdentityMul(t *testing.T) {
	a := Random(6, 6, 3)
	if MaxAbsDiff(Mul(a, Identity(6)), a) > 1e-15 {
		t.Fatal("A*I != A")
	}
	if MaxAbsDiff(Mul(Identity(6), a), a) > 1e-15 {
		t.Fatal("I*A != A")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(5, 5, 7)
	b := Random(5, 5, 7)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed must give same matrix")
	}
	c := Random(5, 5, 8)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(4, 7, seed)
		return MaxAbsDiff(a.Transpose().Transpose(), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativeWithin(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(5, 4, seed)
		b := Random(4, 6, seed+1)
		c := Random(6, 3, seed+2)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return MaxAbsDiff(left, right) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddAgainstManual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := FromRows([][]float64{{1, 0}, {0, 1}})
	MulAdd(c, a, b)
	want := FromRows([][]float64{{20, 22}, {43, 51}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("got\n%v want\n%v", c, want)
	}
}

func TestMulSubInverseOfMulAdd(t *testing.T) {
	a := Random(4, 5, 11)
	b := Random(5, 6, 12)
	c := Random(4, 6, 13)
	orig := c.Clone()
	MulAdd(c, a, b)
	MulSub(c, a, b)
	if MaxAbsDiff(c, orig) > 1e-13 {
		t.Fatal("MulSub did not undo MulAdd")
	}
}

func TestMulSubTrans(t *testing.T) {
	a := Random(4, 3, 20)
	b := Random(5, 3, 21)
	c := Random(4, 5, 22)
	want := c.Clone()
	MulSub(want, a, b.Transpose())
	MulSubTrans(c, a, b)
	if MaxAbsDiff(c, want) > 1e-14 {
		t.Fatal("MulSubTrans disagrees with explicit transpose")
	}
}

func TestTRSMUpperLeft(t *testing.T) {
	n := 12
	tm := RandomUpperTriangular(n, 30)
	x := Random(n, 5, 31)
	b := Mul(tm, x)
	TRSMUpperLeft(tm, b)
	if MaxAbsDiff(b, x) > 1e-9 {
		t.Fatalf("TRSM residual %g", MaxAbsDiff(b, x))
	}
}

func TestTRSMLowerTransRight(t *testing.T) {
	n := 10
	l := RandomLowerTriangular(n, 40)
	x := Random(7, n, 41)
	b := Mul(x, l.Transpose())
	TRSMLowerTransRight(l, b)
	if MaxAbsDiff(b, x) > 1e-9 {
		t.Fatalf("residual %g", MaxAbsDiff(b, x))
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := RandomSPD(n, uint64(n))
		l := a.Clone()
		if err := CholeskyInPlace(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := Mul(l, l.Transpose())
		if MaxAbsDiff(recon, a) > 1e-8*float64(n) {
			t.Fatalf("n=%d reconstruction error %g", n, MaxAbsDiff(recon, a))
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, −1
	if err := CholeskyInPlace(a); err == nil {
		t.Fatal("expected not-positive-definite error")
	}
}

func TestLUReconstructs(t *testing.T) {
	for _, n := range []int{1, 3, 8, 17} {
		// Diagonally dominant so no pivoting is needed.
		a := Random(n, n, uint64(100+n))
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		orig := a.Clone()
		if err := LUInPlace(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := SplitLU(a)
		if MaxAbsDiff(Mul(l, u), orig) > 1e-9*float64(n) {
			t.Fatalf("n=%d LU residual %g", n, MaxAbsDiff(Mul(l, u), orig))
		}
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	if err := LUInPlace(a); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if math.Abs(m.FrobeniusNorm()-5) > 1e-15 {
		t.Fatalf("got %v", m.FrobeniusNorm())
	}
}

func TestAddSubScale(t *testing.T) {
	a := Random(3, 3, 50)
	b := Random(3, 3, 51)
	sum := New(3, 3)
	sum.Add(a, b)
	sum.Sub(sum, b)
	if MaxAbsDiff(sum, a) > 1e-15 {
		t.Fatal("Add/Sub roundtrip failed")
	}
	c := a.Clone()
	c.Scale(2)
	c.Scale(0.5)
	if MaxAbsDiff(c, a) > 1e-15 {
		t.Fatal("Scale roundtrip failed")
	}
}

func TestResidualMulDetectsError(t *testing.T) {
	a := Random(6, 6, 60)
	b := Random(6, 6, 61)
	c := Mul(a, b)
	if r := ResidualMul(c, a, b); r > 1e-14 {
		t.Fatalf("exact product residual %g", r)
	}
	c.Set(0, 0, c.At(0, 0)+1)
	if r := ResidualMul(c, a, b); r < 1e-6 {
		t.Fatalf("perturbed product residual too small: %g", r)
	}
}

func TestRandomSPDIsSymmetric(t *testing.T) {
	a := RandomSPD(9, 5)
	if MaxAbsDiff(a, a.Transpose()) != 0 {
		t.Fatal("SPD generator not symmetric")
	}
}

func TestTriangularGenerators(t *testing.T) {
	u := RandomUpperTriangular(6, 1)
	for i := 0; i < 6; i++ {
		for j := 0; j < i; j++ {
			if u.At(i, j) != 0 {
				t.Fatal("upper-triangular has nonzero below diagonal")
			}
		}
		if math.Abs(u.At(i, i)) < 2 {
			t.Fatal("diagonal not bounded away from zero")
		}
	}
	l := RandomLowerTriangular(6, 1)
	if MaxAbsDiff(l, RandomUpperTriangular(6, 1).Transpose()) != 0 {
		t.Fatal("lower generator should transpose the upper one")
	}
}
