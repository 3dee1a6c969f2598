package krylov

import (
	"fmt"
	"math"
	"testing"

	"writeavoid/internal/machine"
)

// basisCall is one (idx, cols) pair handed to basisBlocks' fn, copied: the
// production kernels reuse both buffers for the next block.
type basisCall struct {
	idx  []int
	cols [][]float64
}

func collectBasis(op Operator, p, r []float64, s int, rec basisRecurrence, block int) ([]basisCall, Traffic, int64) {
	var calls []basisCall
	var tr Traffic
	var flops int64
	op.basisBlocks(p, r, s, rec, block, &tr, &flops, func(idx []int, cols [][]float64) {
		c := basisCall{idx: append([]int(nil), idx...)}
		for _, col := range cols {
			c.cols = append(c.cols, append([]float64(nil), col...))
		}
		calls = append(calls, c)
	})
	return calls, tr, flops
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every (idx, cols) the buffer-reusing basisBlocks hands to fn is bit for bit
// the reference's, block after block, with the same traffic and flops: for
// bandwidths 1 and 2, s up to 8 (ghost zones wider than the mesh included),
// ragged last tiles, and blocks as large as the mesh or larger.
func TestBasisBlocksMatchReference(t *testing.T) {
	type pair struct {
		name     string
		got, ref Operator
		blocks   []int
	}
	for _, b := range []int{1, 2} {
		ring, tor := NewRing(50, b), NewTorus(11, b)
		pairs := []pair{
			{fmt.Sprintf("ring/b=%d", b), ring, refRing{ring}, []int{1, 7, 16, 50, 64}},
			{fmt.Sprintf("torus/b=%d", b), tor, refTorus{tor}, []int{1, 4, 5, 11, 16}},
		}
		for _, pr := range pairs {
			n := pr.got.Size()
			p, r := randVec(n, 31), randVec(n, 32)
			for _, s := range []int{1, 2, 4, 8} {
				for _, basis := range []Basis{BasisMonomial, BasisNewton} {
					rec := newRecurrence(pr.got, s, basis)
					for _, block := range pr.blocks {
						name := fmt.Sprintf("%s/s=%d/basis=%d/block=%d", pr.name, s, basis, block)
						got, gtr, gfl := collectBasis(pr.got, p, r, s, rec, block)
						want, wtr, wfl := collectBasis(pr.ref, p, r, s, rec, block)
						if gtr != wtr || gfl != wfl {
							t.Fatalf("%s: traffic %+v flops %d, want %+v flops %d", name, gtr, gfl, wtr, wfl)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d blocks, want %d", name, len(got), len(want))
						}
						for i := range want {
							g, w := got[i], want[i]
							if fmt.Sprint(g.idx) != fmt.Sprint(w.idx) || len(g.cols) != len(w.cols) {
								t.Fatalf("%s block %d: idx %v (%d cols), want %v (%d cols)", name, i, g.idx, len(g.cols), w.idx, len(w.cols))
							}
							for c := range w.cols {
								if !sameBits(g.cols[c], w.cols[c]) {
									t.Fatalf("%s block %d column %d:\n got %v\nwant %v", name, i, c, g.cols[c], w.cols[c])
								}
							}
						}
					}
				}
			}
		}
	}
}

// eventLog keeps every Traffic charge and phase mark in order.
type eventLog []machine.Event

func (l *eventLog) Record(events []machine.Event) { *l = append(*l, events...) }

// CACG with one CSR and one basis per solve computes the reference's
// iterates, flop count, traffic and phase-marked charge sequence bit for
// bit, in both modes and both bases.
func TestCACGMatchesReference(t *testing.T) {
	ring, tor := NewRing(96, 2), NewTorus(12, 1)
	ops := []struct {
		name     string
		got, ref Operator
		block    int
	}{
		{"ring", ring, refRing{ring}, 20},
		{"torus", tor, refTorus{tor}, 5},
	}
	for _, o := range ops {
		n := o.got.Size()
		b, x0 := randVec(n, 41), randVec(n, 42)
		for _, s := range []int{1, 2, 4} {
			for _, mode := range []CACGMode{CACGStored, CACGStreaming} {
				for _, basis := range []Basis{BasisMonomial, BasisNewton} {
					name := fmt.Sprintf("%s/s=%d/mode=%d/basis=%d", o.name, s, mode, basis)
					cfg := CACGConfig{S: s, Mode: mode, Basis: basis, Block: o.block}
					var glog, wlog eventLog
					gtr, wtr := Traffic{Rec: &glog}, Traffic{Rec: &wlog}
					got, err := CACG(o.got, b, x0, 8/s, cfg, &gtr)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cacgRef(o.ref, b, x0, 8/s, cfg, &wtr)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got.X, want.X) {
						t.Fatalf("%s: X differs from the reference", name)
					}
					if got.FlopCount != want.FlopCount || got.Iters != want.Iters ||
						math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
						t.Fatalf("%s: flops %d iters %d residual %g, want %d %d %g", name,
							got.FlopCount, got.Iters, got.Residual, want.FlopCount, want.Iters, want.Residual)
					}
					if gtr.Reads != wtr.Reads || gtr.Writes != wtr.Writes {
						t.Fatalf("%s: traffic R%d W%d, want R%d W%d", name, gtr.Reads, gtr.Writes, wtr.Reads, wtr.Writes)
					}
					if fmt.Sprint(glog) != fmt.Sprint(wlog) {
						t.Fatalf("%s: charge sequence differs from the reference", name)
					}
				}
			}
		}
	}
}

// The presized CSR forms are the appended ones, entry for entry.
func TestCSRMatchesReference(t *testing.T) {
	for _, b := range []int{1, 2} {
		ring, tor := NewRing(23, b), NewTorus(9, b)
		for _, c := range []struct {
			name      string
			got, want *CSR
		}{
			{"ring", ring.CSR(), refRingCSR(ring)},
			{"torus", tor.Matrix(), refTorusMatrix(tor)},
		} {
			if fmt.Sprint(c.got.RowPtr, c.got.Col) != fmt.Sprint(c.want.RowPtr, c.want.Col) ||
				!sameBits(c.got.Val, c.want.Val) || c.got.N != c.want.N {
				t.Fatalf("%s b=%d: CSR differs from the reference", c.name, b)
			}
			if cap(c.got.Col) != len(c.got.Col) || cap(c.got.Val) != len(c.got.Val) {
				t.Fatalf("%s b=%d: Col/Val not presized (cap %d/%d, len %d)", c.name, b,
					cap(c.got.Col), cap(c.got.Val), len(c.got.Val))
			}
		}
	}
}

// A streaming CA-CG solve allocates per solve and per outer iteration, never
// per tile: on the K=64 torus, 64 tiles of edge 8 cost no more allocations
// than 4 tiles of edge 32. The copying basis kernels made several slices per
// tile and power: 671 allocations with 4 tiles, 9,311 with 64.
func TestCACGStreamingAllocsFlatInTiles(t *testing.T) {
	tor := NewTorus(64, 1)
	n := tor.Size()
	b, x0 := randVec(n, 51), make([]float64, n)
	allocs := func(block int) float64 {
		return testing.AllocsPerRun(3, func() {
			var tr Traffic
			if _, err := CACG(tor, b, x0, 2, CACGConfig{S: 4, Mode: CACGStreaming, Block: block}, &tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(32), allocs(8)
	t.Logf("allocations per solve: %v with 4 tiles, %v with 64", few, many)
	if many > few+4 || many > 100 {
		t.Fatalf("streaming CA-CG: %v allocations with 64 tiles, %v with 4; want equal and under 100", many, few)
	}
}
