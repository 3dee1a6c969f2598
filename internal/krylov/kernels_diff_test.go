package krylov

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// edgeValues are the inputs beside ordinary numbers that the kernel
// differentials draw: signed zeros, infinities, and magnitudes whose
// products and sums overflow or underflow.
var edgeValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, -1e-300}

// edgeVec returns n values. One in every `every` (none if every is 0) is
// an edgeValues entry; the rest are of mixed sign and magnitude, so that a
// sum taken in another order, or with a term more or less, rounds
// differently.
func edgeVec(n int, seed uint64, every int) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	v := make([]float64, n)
	for i := range v {
		if every > 0 && rng.IntN(every) == 0 {
			v[i] = edgeValues[rng.IntN(len(edgeValues))]
		} else {
			v[i] = (2*rng.Float64() - 1) * math.Ldexp(1, rng.IntN(41)-20)
		}
	}
	return v
}

// canary marks the slots past a kernel's output: a NaN whose payload no
// arithmetic produces.
var canary = math.Float64frombits(0x7ff4_dead_beef_0001)

// withCanary returns a slice of n zeros backed by an array with three
// canary slots after them.
func withCanary(n int) []float64 {
	s := make([]float64, n+3)
	for i := n; i < len(s); i++ {
		s[i] = canary
	}
	return s[:n]
}

// checkKernel fails unless got and want hold the same bits and the canary
// slots after got are intact.
func checkKernel(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i, v := range got[len(got):cap(got)] {
		if math.Float64bits(v) != math.Float64bits(canary) {
			t.Fatalf("%s: wrote %v %d slots past its output", what, v, i)
		}
	}
}

// checkBoxKernels runs gatherBox and applyBox against their references on
// the torus tor and mesh vector x: the (h x w) box at every anchor pair,
// and the stencil on that box's halo-inflated (h+2b) x (w+2b) source.
func checkBoxKernels(t testing.TB, tor Torus, x []float64, anchors []int, h, w int) {
	t.Helper()
	b := tor.B
	eh, ew := h+2*b, w+2*b
	for _, y0 := range anchors {
		for _, x0 := range anchors {
			what := fmt.Sprintf("K=%d b=%d box %dx%d at (%d,%d)", tor.K, b, h, w, y0, x0)
			got, want := withCanary(h*w), make([]float64, h*w)
			tor.gatherBox(got, x, y0, x0, h, w)
			gatherBoxRef(tor, want, x, y0, x0, h, w)
			checkKernel(t, "gatherBox "+what, got, want)

			src := make([]float64, eh*ew)
			gatherBoxRef(tor, src, x, y0-b, x0-b, eh, ew)
			got, want = withCanary(h*w), make([]float64, h*w)
			tor.applyBox(got, src, h, w)
			applyBoxRef(tor, want, src, h, w)
			checkKernel(t, "applyBox "+what, got, want)
		}
	}
}

// checkMulVec runs CSR.MulVec against the reference on x.
func checkMulVec(t testing.TB, what string, m *CSR, x []float64) {
	t.Helper()
	got, want := withCanary(m.N), make([]float64, m.N)
	m.MulVec(got, x)
	mulVecRef(m, want, x)
	checkKernel(t, "MulVec "+what, got, want)
}

// checkRingGather runs Ring.Gather against the reference from every anchor,
// for lengths from 0 to more than twice the ring.
func checkRingGather(t testing.TB, ring Ring, x []float64, anchors []int) {
	t.Helper()
	for _, lo := range anchors {
		for _, w := range []int{0, 1, 2, ring.N - 1, ring.N, ring.N + 1, 2*ring.N + 3} {
			got, want := withCanary(w), make([]float64, w)
			ring.Gather(got, x, lo)
			ringGatherRef(ring, want, x, lo)
			checkKernel(t, fmt.Sprintf("Ring.Gather N=%d lo=%d len=%d", ring.N, lo, w), got, want)
		}
	}
}

// tileOp hands fixed tiles of basis columns to basisBlocks' fn, whatever s
// and the recurrence: the Gram kernels see exactly these columns.
type tileOp struct {
	Ring
	tiles [][][]float64 // tile, column, element
}

func (o tileOp) basisBlocks(p, r []float64, s int, rec basisRecurrence, block int, t *Traffic, flops *int64, fn func(idx []int, cols [][]float64)) {
	for _, cols := range o.tiles {
		fn(make([]int, len(cols[0])), cols)
	}
}

// columns cuts dim columns of length w from v, each starting at its own
// offset and wrapping.
func columns(v []float64, dim, w int) [][]float64 {
	cols := make([][]float64, dim)
	for c := range cols {
		cols[c] = make([]float64, w)
		for e := range cols[c] {
			cols[c][e] = v[(c*7+e*3+c*e)%len(v)]
		}
	}
	return cols
}

// checkGram runs gramFull on dim columns of length w, and gramStreaming
// over tiles of widths ws (when dim is odd: dim = 2s+1), against their
// references: every entry of G bit for bit, with the same traffic and flops.
func checkGram(t testing.TB, v []float64, dim, w int, ws []int) {
	t.Helper()
	same := func(what string, got, want [][]float64, gtr, wtr Traffic, gfl, wfl int64) {
		t.Helper()
		if gtr != wtr || gfl != wfl {
			t.Fatalf("%s: traffic %+v flops %d, reference %+v flops %d", what, gtr, gfl, wtr, wfl)
		}
		for i := range want {
			checkKernel(t, fmt.Sprintf("%s row %d", what, i), got[i], want[i])
		}
	}
	basis := columns(v, dim, w)
	var gtr, wtr Traffic
	var gfl, wfl int64
	got := gramFull(basis, &gtr, &gfl)
	want := gramFullRef(basis, &wtr, &wfl)
	same(fmt.Sprintf("gramFull dim=%d n=%d", dim, w), got, want, gtr, wtr, gfl, wfl)

	if dim%2 == 0 {
		return
	}
	op := tileOp{Ring: NewRing(8, 1)}
	for i, tw := range ws {
		op.tiles = append(op.tiles, columns(v[i%len(v):], dim, tw))
	}
	s := dim / 2
	rec := newRecurrence(op, s, BasisMonomial)
	gtr, wtr, gfl, wfl = Traffic{}, Traffic{}, 0, 0
	got = gramStreaming(op, nil, nil, s, rec, 1, &gtr, &gfl)
	want = gramStreamingRef(op, nil, nil, s, rec, 1, &wtr, &wfl)
	same(fmt.Sprintf("gramStreaming dim=%d tiles %v", dim, ws), got, want, gtr, wtr, gfl, wfl)
}

// The row-slice kernels compute what the per-element ones they replaced
// did, bit for bit, and write nothing past their outputs: the box gather
// and stencil for bandwidths 1 to 3, boxes from 1x1 to wider than the mesh
// and anchors before it and past it; Ring.Gather; MulVec on ring, torus and
// irregular graph matrices; and the Gram sums for every dimension from 3
// to 17, so every count of columns left over from the four-wide passes.
// Each runs on ordinary values and on values mixed with signed zeros,
// infinities and 1e+-300.
func TestTorusKernelsMatchReference(t *testing.T) {
	for _, every := range []int{0, 8, 2} {
		for _, b := range []int{1, 2, 3} {
			k := 2*b + 3
			tor := NewTorus(k, b)
			x := edgeVec(k*k, uint64(10*b+every), every)
			anchors := []int{-2*k - 1, -k, -b, 0, 1, k - 1, k, 2*k + 3}
			edges := []int{1, 2, 3, k - 1, k, k + 1, 2*k + 1}
			for _, h := range edges {
				for _, w := range edges {
					checkBoxKernels(t, tor, x, anchors, h, w)
				}
			}
			checkMulVec(t, fmt.Sprintf("torus K=%d b=%d", k, b), tor.Matrix(), x)
			ring := NewRing(5*b+2, b)
			rx := edgeVec(ring.N, uint64(20*b+every), every)
			checkMulVec(t, fmt.Sprintf("ring N=%d b=%d", ring.N, b), ring.CSR(), rx)
			checkRingGather(t, ring, rx, []int{-3*ring.N - 1, -b, 0, 1, ring.N - 1, ring.N, 2*ring.N + 5})
		}
		g, err := NewGraphOperator(randomGraph(60, 4, uint64(every)))
		if err != nil {
			t.Fatal(err)
		}
		checkMulVec(t, "graph", g.Matrix(), edgeVec(60, uint64(30+every), every))

		v := edgeVec(997, uint64(40+every), every)
		for dim := 3; dim <= 17; dim++ {
			for _, w := range []int{0, 1, 5, 64} {
				checkGram(t, v, dim, w, []int{w, 3, 1, 16, 0})
			}
		}
	}
}

// randomGraph returns an n x n CSR with a symmetric pattern: every
// diagonal and about deg random off-diagonal pairs per row, each row's
// columns in a shuffled order, so that rows differ in length and MulVec
// sums them as stored.
func randomGraph(n, deg int, seed uint64) *CSR {
	rng := rand.New(rand.NewPCG(seed, 77))
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = map[int]bool{i: true}
	}
	for range n * deg / 2 {
		i, j := rng.IntN(n), rng.IntN(n)
		adj[i][j], adj[j][i] = true, true
	}
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := range adj {
		cols := make([]int, 0, len(adj[i]))
		for j := range n {
			if adj[i][j] {
				cols = append(cols, j)
			}
		}
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		for _, j := range cols {
			v := -rng.Float64()
			if j == i {
				v = float64(2 * deg)
			}
			m.Col = append(m.Col, j)
			m.Val = append(m.Val, v)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// fuzzValues are the values a fuzz input's bytes pick from (low four bits);
// the high four bits scale the pick by a power of two from 2^-8 to 2^7.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, -1e-300,
	1, -1, 1.0 / 3, -0.1, 2.5, -7.75e3, math.Pi, -math.E,
}

// FuzzTorusKernelsMatchReference runs every row-slice kernel against its
// reference on arbitrary values. The first byte picks the bandwidth b
// (1 + byte%3) and the box: h = 1 + (byte/3)%9 rows, w = 1 + byte/27
// columns, on a K = 2b+1 torus so that most boxes are wider than the mesh.
// Every later byte is one value (fuzzValues); they fill the mesh, the ring
// and the Gram columns cyclically, and their count picks the Gram
// dimension (3 to 17).
func FuzzTorusKernelsMatchReference(f *testing.F) {
	f.Add([]byte{0, 0x08, 0x19, 0x2a})
	f.Add([]byte{0x4d, 0x02, 0x13, 0x04, 0x88, 0x0b, 0x1c, 0xff, 0x31, 0x40, 0x6e})
	f.Add([]byte{0xff, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x18, 0x29, 0x3a, 0x4b, 0x5c, 0x6d, 0x7e, 0x8f, 0x90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := int(data[0])
		b, h, w := 1+c%3, 1+(c/3)%9, 1+c/27
		vals := make([]float64, len(data)-1)
		for i, d := range data[1:] {
			vals[i] = math.Ldexp(fuzzValues[d&15], int(d>>4)-8)
		}
		fill := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = vals[i%len(vals)]
			}
			return v
		}
		k := 2*b + 1
		tor := NewTorus(k, b)
		x := fill(k * k)
		checkBoxKernels(t, tor, x, []int{-2*k - 1, -b, 0, k - 1, 2 * k}, h, w)
		checkMulVec(t, "torus", tor.Matrix(), x)
		ring := NewRing(k*k, b)
		checkMulVec(t, "ring", ring.CSR(), x)
		checkRingGather(t, ring, x, []int{-k*k - 2, -b, 0, k*k + 1})
		checkGram(t, vals, 3+len(vals)%15, h*w, []int{h * w, w, 1})
	})
}
