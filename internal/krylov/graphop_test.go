package krylov

import (
	"math"
	"strings"
	"testing"
)

func TestGraphOperatorBoundsMatchRing(t *testing.T) {
	ring := NewRing(64, 2)
	g, err := NewGraphOperator(ring.CSR())
	if err != nil {
		t.Fatal(err)
	}
	rl, rh := ring.SpectrumBounds()
	gl, gh := g.SpectrumBounds()
	if math.Abs(rl-gl) > 1e-12 || math.Abs(rh-gh) > 1e-12 {
		t.Fatalf("bounds (%g,%g) vs ring (%g,%g)", gl, gh, rl, rh)
	}
	if g.Size() != 64 {
		t.Fatal("size")
	}
}

func TestGraphOperatorRejectsMissingDiagonal(t *testing.T) {
	m := &CSR{N: 2, RowPtr: []int{0, 1, 2}, Col: []int{1, 0}, Val: []float64{1, 1}}
	if _, err := NewGraphOperator(m); err == nil {
		t.Fatal("want missing-diagonal error")
	}
}

// A stored (i, j) without a stored (j, i) is rejected, naming the first such
// entry in row order; the diagonal alone does not make a pattern symmetric.
func TestGraphOperatorRejectsAsymmetricPattern(t *testing.T) {
	// Rows 0..2, all diagonals stored; (0,2) and (1,2) lack (2,0) and (2,1).
	m := &CSR{N: 3, RowPtr: []int{0, 2, 4, 5}, Col: []int{0, 2, 1, 2, 2}, Val: []float64{4, 1, 4, 1, 4}}
	_, err := NewGraphOperator(m)
	if err == nil {
		t.Fatal("want asymmetric-pattern error")
	}
	if want := "(0,2) is stored but (2,0) is not"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	// Adding the mirrored entries makes it acceptable.
	m = &CSR{N: 3, RowPtr: []int{0, 2, 4, 7}, Col: []int{0, 2, 1, 2, 0, 1, 2}, Val: []float64{4, 1, 4, 1, 1, 1, 4}}
	if _, err := NewGraphOperator(m); err != nil {
		t.Fatalf("symmetric pattern rejected: %v", err)
	}
}

// The graph-derived ghost zones must reproduce the geometric ones: CA-CG on
// GraphOperator(ring.CSR()) computes the same iterates as CA-CG on the Ring
// itself, to roundoff.
func TestGraphOperatorMatchesRing(t *testing.T) {
	ring := NewRing(96, 2)
	g, err := NewGraphOperator(ring.CSR())
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(96, 21)
	x0 := make([]float64, 96)
	for _, s := range []int{2, 4} {
		var t1, t2 Traffic
		r1, err := CACG(ring, b, x0, 8/s, CACGConfig{S: s, Mode: CACGStreaming, Block: 16}, &t1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := CACG(g, b, x0, 8/s, CACGConfig{S: s, Mode: CACGStreaming, Block: 16}, &t2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.X {
			if math.Abs(r1.X[i]-r2.X[i]) > 1e-11 {
				t.Fatalf("s=%d: iterates diverge at %d: %g vs %g", s, i, r1.X[i], r2.X[i])
			}
		}
	}
}

func TestGraphOperatorMatchesTorus(t *testing.T) {
	tor := NewTorus(10, 1)
	g, err := NewGraphOperator(tor.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(100, 22)
	x0 := make([]float64, 100)
	var t1, t2 Traffic
	r1, err := CACG(tor, b, x0, 3, CACGConfig{S: 2, Mode: CACGStreaming, Block: 5}, &t1)
	if err != nil {
		t.Fatal(err)
	}
	// GraphOperator blocks are row ranges, not tiles; results must agree
	// regardless of the blocking.
	r2, err := CACG(g, b, x0, 3, CACGConfig{S: 2, Mode: CACGStreaming, Block: 30}, &t2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.X {
		if math.Abs(r1.X[i]-r2.X[i]) > 1e-11 {
			t.Fatalf("iterates diverge at %d", i)
		}
	}
}

func TestGraphOperatorMatchesCG(t *testing.T) {
	ring := NewRing(128, 1)
	g, err := NewGraphOperator(ring.CSR())
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(128, 23)
	x0 := make([]float64, 128)
	var trCG, tr Traffic
	ref := CG(ring.CSR(), b, x0, 16, 0, &trCG)
	got, err := CACG(g, b, x0, 2, CACGConfig{S: 8, Mode: CACGStreaming, Basis: BasisNewton, Block: 32}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if math.Abs(ref.X[i]-got.X[i]) > 1e-7 {
			t.Fatalf("diverges from CG at %d by %g", i, ref.X[i]-got.X[i])
		}
	}
}

// The write reduction carries over to the general-graph path.
func TestGraphOperatorWriteReduction(t *testing.T) {
	ring := NewRing(4096, 1)
	g, err := NewGraphOperator(ring.CSR())
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(4096, 24)
	x0 := make([]float64, 4096)
	iters := 16
	var trCG Traffic
	CG(ring.CSR(), b, x0, iters, 0, &trCG)
	for _, s := range []int{2, 4} {
		var tr Traffic
		if _, err := CACG(g, b, x0, iters/s, CACGConfig{S: s, Mode: CACGStreaming, Block: 256}, &tr); err != nil {
			t.Fatal(err)
		}
		if ratio := float64(trCG.Writes) / float64(tr.Writes); ratio < float64(s)/2 {
			t.Fatalf("s=%d: write reduction only %.2f", s, ratio)
		}
	}
}

func TestNeedSetsNested(t *testing.T) {
	ring := NewRing(32, 1)
	g, err := NewGraphOperator(ring.CSR())
	if err != nil {
		t.Fatal(err)
	}
	block := []int32{8, 9, 10, 11}
	need := g.needSets(block, 3)
	if len(need) != 4 {
		t.Fatal("levels")
	}
	// Each level grows by the stencil radius on each side.
	for j := 3; j >= 0; j-- {
		want := 4 + 2*(3-j)
		if len(need[j]) != want {
			t.Fatalf("level %d: %d rows want %d", j, len(need[j]), want)
		}
	}
	// Nested: need[j] contains need[j+1].
	for j := 0; j < 3; j++ {
		set := map[int32]bool{}
		for _, v := range need[j] {
			set[v] = true
		}
		for _, v := range need[j+1] {
			if !set[v] {
				t.Fatalf("need[%d] missing %d from need[%d]", j, v, j+1)
			}
		}
	}
}
