package extsort

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"writeavoid/internal/machine"
)

// FuzzSortOmega drives all three sort entry points from a fuzzed
// (seed, n, m, ω, nanAt) tuple: outputs must match the reference sort,
// realized traffic must match the predictions word for word, and the strict
// occupancy model must not panic — an occupancy bug surfaces as a crash. A
// non-negative nanAt puts a NaN at nanAt mod n, and every entry point must
// then refuse the input, naming that index, without charging the machine.
func FuzzSortOmega(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint16(64), float64(1), int16(-1))
	f.Add(uint64(2), uint16(4096), uint16(64), float64(8), int16(-1))
	f.Add(uint64(3), uint16(0), uint16(32), float64(100), int16(-1))
	f.Add(uint64(4), uint16(33), uint16(32), float64(2.5), int16(-1))
	f.Add(uint64(5), uint16(100), uint16(0), float64(64), int16(40))
	f.Add(uint64(6), uint16(300), uint16(0), float64(1), int16(299))
	f.Add(uint64(7), uint16(1), uint16(0), float64(1), int16(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw uint16, omega float64, nanAt int16) {
		n := int(nRaw % 5000)
		m := 32 + int(mRaw%500)
		if math.IsNaN(omega) || omega < 1 || omega > 1e6 {
			omega = 1 + math.Abs(math.Mod(omega, 1e6))
			if math.IsNaN(omega) {
				omega = 1
			}
		}
		rng := rand.New(rand.NewPCG(seed, 17))
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.Float64()*2e6 - 1e6
		}
		if nanAt >= 0 && n > 0 {
			at := int(nanAt) % n
			data[at] = math.NaN()
			checkRejectsNaN(t, data, m, omega, at)
			return
		}
		want := append([]float64(nil), data...)
		sort.Float64s(want)

		check := func(name string, got []float64, h *machine.Hierarchy, wantL, wantS int64) {
			if len(got) != len(want) {
				t.Fatalf("%s: length %d want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: mismatch at %d: %g want %g", name, i, got[i], want[i])
				}
			}
			c := h.Interface(0)
			if c.LoadWords != wantL || c.StoreWords != wantS {
				t.Fatalf("%s: traffic (%d,%d) want (%d,%d)", name, c.LoadWords, c.StoreWords, wantL, wantS)
			}
			if !h.Theorem1Holds(0) || !h.ResidencyBalanced(0) {
				t.Fatalf("%s: model invariants violated", name)
			}
		}

		h1 := machine.TwoLevel(int64(m))
		out1, err := Sort(h1, m, data)
		if err != nil {
			t.Fatal(err)
		}
		l1, s1 := PredictTraffic(n, m)
		check("merge", out1, h1, l1, s1)

		h2 := machine.TwoLevel(int64(m))
		out2, err := SortWriteEfficient(h2, m, data)
		if err != nil {
			t.Fatal(err)
		}
		l2, s2 := PredictTrafficWriteEfficient(n, m)
		check("small-write", out2, h2, l2, s2)

		h3 := machine.TwoLevel(int64(m))
		out3, strat, err := SortOmega(h3, m, omega, data)
		if err != nil {
			t.Fatal(err)
		}
		l3, s3, wantStrat := PredictTrafficOmega(n, m, omega)
		if strat != wantStrat {
			t.Fatalf("omega: strategy %v want %v", strat, wantStrat)
		}
		check("omega", out3, h3, l3, s3)
	})
}
