package strassen

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// eventLog keeps every event a hierarchy delivers, in order.
type eventLog []machine.Event

func (l *eventLog) Record(events []machine.Event) { *l = append(*l, events...) }

func sameBits(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// operands returns n x n views with a stride wider than n (blocks of larger
// matrices), so the streams' row arithmetic is exercised off a tight layout.
func operands(n int, seed uint64) (a, b *matrix.Dense) {
	a = matrix.Random(n+3, n+5, seed).Block(2, 3, n, n)
	b = matrix.Random(n+1, n+2, seed+1).Block(1, 1, n, n)
	return a, b
}

// Multiply and MultiplyWinograd on one scratch stack per call compute the
// reference's C bit for bit and drive the machine through the same events in
// the same order, at every recursion depth, including over two calls in a
// row on one machine.
func TestMultiplyMatchesReference(t *testing.T) {
	schemes := []struct {
		name string
		got  func(*machine.Hierarchy, int64, *matrix.Dense, *matrix.Dense) (*matrix.Dense, error)
		want func(*machine.Hierarchy, int64, *matrix.Dense, *matrix.Dense) *matrix.Dense
	}{
		{"strassen", Multiply, refMultiply},
		{"winograd", MultiplyWinograd, refMultiplyWinograd},
	}
	for _, sc := range schemes {
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			for _, m := range []int64{3, 12, 27, 48, 192, 768} {
				if n/refBase(m) > 16 {
					continue // past four levels the event logs get slow
				}
				name := fmt.Sprintf("%s/n=%d/m=%d", sc.name, n, m)
				hg, hw := machine.TwoLevel(m), machine.TwoLevel(m)
				var lg, lw eventLog
				hg.Attach(&lg)
				hw.Attach(&lw)
				for call := 0; call < 2; call++ {
					a, b := operands(n, uint64(10*n+call))
					got, err := sc.got(hg, m, a, b)
					if err != nil {
						t.Fatal(err)
					}
					want := sc.want(hw, m, a, b)
					if !sameBits(got, want) {
						t.Fatalf("%s call %d: C differs from the reference", name, call)
					}
					hg.Flush()
					hw.Flush()
					if !reflect.DeepEqual(*hg.Counters(), *hw.Counters()) {
						t.Fatalf("%s call %d: counters %+v, want %+v", name, call, *hg.Counters(), *hw.Counters())
					}
					if !reflect.DeepEqual(lg, lw) {
						t.Fatalf("%s call %d: event sequence differs (%d events, want %d)", name, call, len(lg), len(lw))
					}
				}
			}
		}
	}
}

// A multiplication allocates its result and one scratch stack, not a fresh
// matrix per temporary per recursion node: at n = 128 and m = 48 (five
// levels, 2,801 nodes above the base case) the per-node temporaries cost
// about 95,000 allocations.
func TestMultiplyAllocsPerCall(t *testing.T) {
	a, b := operands(128, 71)
	for _, f := range []struct {
		name string
		mul  func(*machine.Hierarchy, int64, *matrix.Dense, *matrix.Dense) (*matrix.Dense, error)
	}{{"Multiply", Multiply}, {"MultiplyWinograd", MultiplyWinograd}} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := f.mul(machine.TwoLevel(48), 48, a, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Fatalf("%s at n=128: %v allocations, want at most 16", f.name, allocs)
		}
	}
}
