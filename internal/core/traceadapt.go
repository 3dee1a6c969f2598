package core

import (
	"fmt"

	"writeavoid/internal/access"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// This file is the address-trace façade over the counted algorithm drivers:
// the Section 6 experiments (Figures 2 and 5, Propositions 6.1 and 6.2) need
// element-granularity access streams fed into a simulated cache, and they get
// them by running the same gemmLevel/trsmLevel/cholLeftLevel recursions that
// drive the word counters, with a Tracer bound to the operands writing every
// access straight into the sink. There is exactly one implementation of each
// blocked loop nest; these types only configure it: dims, blocking,
// per-level loop order, operand address layout.

// TraceLevel is one level of blocking in a traced matmul.
type TraceLevel struct {
	// Block is the tile edge at this level.
	Block int
	// ContractionInner selects the loop order: true is the write-avoiding
	// order of the paper's Fig. 4a WAMatMul (output-block loops outside,
	// contraction innermost), i.e. OrderWA; false is Fig. 4b's ABMatMul
	// order (contraction outermost), i.e. OrderNonWA.
	ContractionInner bool
}

// tracePlan assembles the machinery shared by every trace façade: an
// unbounded non-strict hierarchy with one interface per blocking level, the
// per-interface loop orders, and a Tracer emitting into sink. The hierarchy
// has no recorder attached: it only counts the drivers' Load/Store/Flops, and
// the accesses go from the Tracer to the sink directly. Levels are given
// coarsest first (interface indices count from the fastest level, so the list
// is reversed); an empty list degenerates to a single block covering the
// whole problem, which sends the first recursion step straight to the element
// kernel.
func tracePlan(levels []TraceLevel, maxDim int, sink access.Sink) (*Plan, *Tracer) {
	bs := make([]int, 0, len(levels))
	orders := make([]Order, 0, len(levels))
	for i := len(levels) - 1; i >= 0; i-- {
		bs = append(bs, levels[i].Block)
		if levels[i].ContractionInner {
			orders = append(orders, OrderWA)
		} else {
			orders = append(orders, OrderNonWA)
		}
	}
	if len(bs) == 0 {
		if maxDim < 1 {
			maxDim = 1
		}
		bs = append(bs, maxDim)
		orders = append(orders, OrderWA)
	}
	hl := make([]machine.Level, len(bs)+1)
	for i := range hl {
		hl[i] = machine.Level{Name: fmt.Sprintf("T%d", i)}
	}
	tr := NewTracer(sink)
	return &Plan{H: machine.New(false, hl...), BlockSizes: bs, Orders: orders, Trace: tr}, tr
}

// MatMulTrace describes a traced multiplication C(m×l) += A(m×n)*B(n×l),
// with blocking levels ordered coarsest (L3) first. An empty Levels list goes
// straight to the element kernel.
type MatMulTrace struct {
	M, N, L int
	Levels  []TraceLevel

	A, B, C access.Region
}

// NewMatMulTrace lays out A, B and C in a fresh line-aligned address space.
func NewMatMulTrace(m, n, l int, lineBytes int, levels ...TraceLevel) *MatMulTrace {
	lay := access.NewLayout(uint64(lineBytes))
	return &MatMulTrace{
		M: m, N: n, L: l,
		Levels: levels,
		A:      lay.NewRegion(m, n),
		B:      lay.NewRegion(n, l),
		C:      lay.NewRegion(m, l),
	}
}

// Run emits the full access stream into sink.
func (t *MatMulTrace) Run(sink access.Sink) {
	d := zeros(t.M*t.N + t.N*t.L + t.M*t.L)
	a := carve(&d, t.M, t.N)
	b := carve(&d, t.N, t.L)
	c := carve(&d, t.M, t.L)
	p, tr := tracePlan(t.Levels, max(t.M, t.N, t.L), sink)
	tr.Bind(a, t.A)
	tr.Bind(b, t.B)
	tr.Bind(c, t.C)
	gemmLevel(p, p.topInterface(), c, a, b, modeAddAB)
}

// zeroArena backs the operands of the trace façades. A traced plan emits
// addresses in place of arithmetic, so its operands only have to exist: no
// run writes them, and runs on any goroutine share the arena. As a
// pointer-free package array it lives in BSS: no heap allocation, and pages
// nothing touches never become resident. It holds every Figure 2 and 5
// point, so a process's first trace allocates what every later one does.
var zeroArena [1 << 21]float64

// zeros returns n zero elements, from the arena when they fit.
func zeros(n int) []float64 {
	if n <= len(zeroArena) {
		return zeroArena[:n:n]
	}
	return make([]float64, n)
}

// carve cuts a tight r-by-c root matrix off the front of *d. Its capacity
// ends with it, so no view of one root can reach into the next and
// Tracer.view tells the roots apart.
func carve(d *[]float64, r, c int) *matrix.Dense {
	n := r * c
	m := &matrix.Dense{Rows: r, Cols: c, Stride: c, Data: (*d)[:n:n]}
	*d = (*d)[n:]
	return m
}

// PredictTraceOps returns the exact number of reads and writes the trace will
// emit when all dims divide the finest block evenly: every base-kernel call
// reads and writes each of its C elements once and streams A and B.
func (t *MatMulTrace) PredictTraceOps() (reads, writes int64) {
	fin := t.finestBlock()
	M, N, L := int64(t.M), int64(t.N), int64(t.L)
	cVisits := M * L * (N / int64(fin))
	return 2*M*N*L + cVisits, cVisits
}

func (t *MatMulTrace) finestBlock() int {
	if len(t.Levels) == 0 {
		return t.N
	}
	return t.Levels[len(t.Levels)-1].Block
}

// TRSMTrace traces the two-level blocked triangular solve T*X = B
// (T n x n upper, B n x m, X overwrites B) in the write-avoiding order.
type TRSMTrace struct {
	N, M, Block int
	T, B        access.Region
}

// NewTRSMTrace lays out T and B in a fresh address space.
func NewTRSMTrace(n, m, block, lineBytes int) *TRSMTrace {
	lay := access.NewLayout(uint64(lineBytes))
	return &TRSMTrace{N: n, M: m, Block: block, T: lay.NewRegion(n, n), B: lay.NewRegion(n, m)}
}

// Run emits the access stream.
func (t *TRSMTrace) Run(sink access.Sink) {
	d := zeros(t.N*t.N + t.N*t.M)
	tm := carve(&d, t.N, t.N)
	bm := carve(&d, t.N, t.M)
	p, tr := tracePlan([]TraceLevel{{Block: t.Block, ContractionInner: true}}, 0, sink)
	tr.Bind(tm, t.T)
	tr.Bind(bm, t.B)
	trsmLevel(p, p.topInterface(), tm, bm)
}

// CholeskyTrace traces the two-level left-looking blocked Cholesky
// (Algorithm 3 order) of an n x n matrix.
type CholeskyTrace struct {
	N, Block int
	A        access.Region
}

// NewCholeskyTrace lays out A in a fresh address space.
func NewCholeskyTrace(n, block, lineBytes int) *CholeskyTrace {
	lay := access.NewLayout(uint64(lineBytes))
	return &CholeskyTrace{N: n, Block: block, A: lay.NewRegion(n, n)}
}

// Run emits the access stream.
func (t *CholeskyTrace) Run(sink access.Sink) {
	d := zeros(t.N * t.N)
	am := carve(&d, t.N, t.N)
	p, tr := tracePlan([]TraceLevel{{Block: t.Block, ContractionInner: true}}, 0, sink)
	tr.Bind(am, t.A)
	_ = cholLeftLevel(p, p.topInterface(), am) // only the arithmetic can fail
}
