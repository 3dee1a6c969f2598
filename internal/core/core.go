// Package core implements the sequential write-avoiding algorithms of
// Section 4 of "Write-Avoiding Algorithms" (Carson et al., 2015): explicitly
// blocked classical matrix multiplication (Algorithm 1), triangular solve
// (Algorithm 2), left-looking Cholesky factorization (Algorithm 3), and their
// non-write-avoiding loop-order siblings, over two-level or arbitrary
// multi-level memory hierarchies.
//
// Every algorithm here does two things at once:
//
//  1. it computes the real numerical result on matrix.Dense data (validated
//     against the naive reference kernels in internal/matrix), and
//  2. it drives an explicit machine.Hierarchy with the exact Load/Store/
//     Init/Discard sequence of the paper's pseudocode, so the per-level
//     read/write counters can be compared against the paper's closed-form
//     counts, which this package also provides as Predict* functions.
//
// With a Tracer in the Plan the same drivers are element-granularity
// address-trace emitters instead (tracer.go; the façades MatMulTrace,
// TRSMTrace and CholeskyTrace in traceadapt.go, and the cache-oblivious
// COMatMulTrace in cotrace.go) for the Section 6 cache-replacement
// experiments.
package core

import (
	"fmt"

	"writeavoid/internal/intmath"
	"writeavoid/internal/machine"
)

// Order selects the block loop nesting. The paper's central observation is
// that the same blocked CA algorithm is write-avoiding for exactly one of
// these orders.
type Order int

const (
	// OrderWA keeps the output block innermost-accumulated: the
	// contraction dimension is the innermost block loop (k innermost for
	// C=AB and TRSM; left-looking for Cholesky). Writes to slow memory
	// equal the output size.
	OrderWA Order = iota
	// OrderNonWA puts the contraction dimension outermost (right-looking
	// for Cholesky), so every output block is re-loaded and re-stored per
	// contraction step: still communication-avoiding, but writes to slow
	// memory are within a constant factor of reads.
	OrderNonWA
)

func (o Order) String() string {
	if o == OrderWA {
		return "WA"
	}
	return "nonWA"
}

// Plan describes how an algorithm maps onto a machine: the hierarchy whose
// counters are driven, and one block size per interface, fastest first.
// BlockSizes[i] is the tile edge used when staging data into level i from
// level i+1; it must satisfy 3*BlockSizes[i]^2 <= size of level i, and each
// block size must divide the next coarser one.
//
// A plan may supply fewer block sizes than the hierarchy has interfaces, in
// which case only the fastest len(BlockSizes) interfaces are driven: the
// operands are taken to be resident in level len(BlockSizes) already. The
// parallel algorithms of Section 7 use this for multiplies on data already
// staged into DRAM of an L1/L2/NVM machine.
type Plan struct {
	H          *machine.Hierarchy
	BlockSizes []int
	Order      Order
	// Orders optionally overrides Order per interface: Orders[i] selects
	// the block loop nesting used when staging across interface i. Entries
	// beyond len(Orders) fall back to Order. The Section 6 mixed-order
	// instruction streams (write-avoiding at the top interface only, or
	// everywhere but the top) are expressed this way.
	Orders []Order
	// Trace, when non-nil, makes the plan a pure trace emitter: its
	// base-case kernels write every element access to the Tracer's sink in
	// the exact instruction order of the reference kernels, in place of the
	// arithmetic, so the operands keep their values. Word and flop counting
	// is unchanged. See Tracer.
	Trace *Tracer
}

// orderAt returns the loop order used at interface s.
func (p *Plan) orderAt(s int) Order {
	if s < len(p.Orders) {
		return p.Orders[s]
	}
	return p.Order
}

// TwoLevelPlan is the common case: one fast level of m words with block size
// b = floor(sqrt(m/3)) unless an explicit b is given.
func TwoLevelPlan(fastWords int64, b int, order Order) *Plan {
	if b <= 0 {
		b = intmath.Isqrt(fastWords / 3)
	}
	return &Plan{H: machine.TwoLevel(fastWords), BlockSizes: []int{b}, Order: order}
}

// validate checks the plan's internal consistency against the dims it will
// be used with; dims must be divisible by the coarsest block size.
func (p *Plan) validate(dims ...int) error {
	if p.H == nil {
		return fmt.Errorf("core: plan has no hierarchy")
	}
	max := p.H.NumLevels() - 1
	if len(p.BlockSizes) < 1 || len(p.BlockSizes) > max {
		return fmt.Errorf("core: plan has %d block sizes for %d interfaces", len(p.BlockSizes), max)
	}
	for i, b := range p.BlockSizes {
		if b <= 0 {
			return fmt.Errorf("core: block size %d at interface %d", b, i)
		}
		if sz := p.H.LevelInfo(i).Size; sz > 0 && int64(3*b*b) > sz {
			return fmt.Errorf("core: 3 blocks of %d^2 words exceed level %s size %d",
				b, p.H.LevelInfo(i).Name, sz)
		}
		if i > 0 && p.BlockSizes[i]%p.BlockSizes[i-1] != 0 {
			return fmt.Errorf("core: block size %d at interface %d not a multiple of finer block %d",
				p.BlockSizes[i], i, p.BlockSizes[i-1])
		}
	}
	top := p.BlockSizes[len(p.BlockSizes)-1]
	for _, d := range dims {
		if d%top != 0 {
			return fmt.Errorf("core: dimension %d not a multiple of coarsest block %d", d, top)
		}
	}
	return nil
}

// topInterface returns the index of the coarsest interface (the one adjacent
// to the slowest level).
func (p *Plan) topInterface() int { return len(p.BlockSizes) - 1 }

// marking reports whether span labels are worth formatting at interface s:
// only the coarsest interface of a driver emits spans, and only when an
// attribution recorder is attached.
func (p *Plan) marking(s int) bool {
	return s == p.topInterface() && p.H.Marking()
}
