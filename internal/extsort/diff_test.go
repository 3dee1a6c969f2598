package extsort

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"writeavoid/internal/machine"
)

// eventLog keeps every event a hierarchy delivers, in order.
type eventLog []machine.Event

func (l *eventLog) Record(events []machine.Event) { *l = append(*l, events...) }

// logged returns a fresh two-level machine of m words with an event log
// attached.
func logged(m int) (*machine.Hierarchy, *eventLog) {
	h := machine.TwoLevel(int64(m))
	l := &eventLog{}
	h.Attach(l)
	return h, l
}

// sameRun checks that two sorts produced the same bits and drove their
// machines identically: every counter, and every event in order.
func sameRun(t *testing.T, name string, got, want []float64, hg, hw *machine.Hierarchy, lg, lw *eventLog) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: word %d is %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	hg.Flush()
	hw.Flush()
	if !reflect.DeepEqual(*hg.Counters(), *hw.Counters()) {
		t.Fatalf("%s: counters %+v, want %+v", name, *hg.Counters(), *hw.Counters())
	}
	if !reflect.DeepEqual(*lg, *lw) {
		t.Fatalf("%s: event sequence differs (%d events, want %d)", name, len(*lg), len(*lw))
	}
}

// alphabet is what the differential inputs are drawn from: few values, so
// every run holds long stretches of equal keys, with both zeros (equal under
// <, different in bits) and both infinities.
var alphabet = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1)}

// FuzzSortMatchesReference runs the three entry points on inputs drawn from
// alphabet against the container/heap references: the outputs must agree bit
// for bit (so equal heads leave the typed heaps in the reference's order,
// which the zeros' signs expose) and the machines must see the same events.
func FuzzSortMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint16(0), float64(1))
	f.Add(uint64(2), uint16(2999), uint16(32), float64(1))
	f.Add(uint64(3), uint16(4096), uint16(224), float64(8))
	f.Add(uint64(4), uint16(1500), uint16(0), float64(64))
	f.Add(uint64(5), uint16(700), uint16(100), float64(3))
	f.Add(uint64(6), uint16(33), uint16(0), float64(1000))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw uint16, omega float64) {
		n := int(nRaw % 5000)
		m := 32 + int(mRaw%300)
		if !(omega >= 1 && omega <= 1e6) {
			omega = 1
		}
		rng := rand.New(rand.NewPCG(seed, 23))
		data := make([]float64, n)
		for i := range data {
			data[i] = alphabet[rng.IntN(len(alphabet))]
		}

		hg, lg := logged(m)
		got, err := Sort(hg, m, data)
		if err != nil {
			t.Fatal(err)
		}
		hw, lw := logged(m)
		sameRun(t, "merge", got, refSortMerge(hw, m, defaultBuf, data), hg, hw, lg, lw)

		hg, lg = logged(m)
		got, err = SortWriteEfficient(hg, m, data)
		if err != nil {
			t.Fatal(err)
		}
		hw, lw = logged(m)
		sameRun(t, "small-write", got, refSortWriteEfficient(hw, m, data), hg, hw, lg, lw)

		hg, lg = logged(m)
		got, strat, err := SortOmega(hg, m, omega, data)
		if err != nil {
			t.Fatal(err)
		}
		hw, lw = logged(m)
		var want []float64
		if s, buf := PlanOmega(n, m, omega); s == StrategySmallWrite {
			want = refSortWriteEfficient(hw, m, data)
		} else {
			want = refSortMerge(hw, m, buf, data)
		}
		sameRun(t, fmt.Sprintf("omega %v", strat), got, want, hg, hw, lg, lw)
	})
}

// checkRejectsNaN runs every entry point on data, whose first NaN is at
// index at: each must return an error naming that index and no output, and
// leave its machine untouched.
func checkRejectsNaN(t *testing.T, data []float64, m int, omega float64, at int) {
	t.Helper()
	untouched := *machine.TwoLevel(int64(m)).Counters()
	want := fmt.Sprintf("data[%d] is NaN", at)
	for _, sorter := range []struct {
		name string
		run  func(h *machine.Hierarchy) ([]float64, error)
	}{
		{"Sort", func(h *machine.Hierarchy) ([]float64, error) { return Sort(h, m, data) }},
		{"SortWriteEfficient", func(h *machine.Hierarchy) ([]float64, error) { return SortWriteEfficient(h, m, data) }},
		{"SortOmega", func(h *machine.Hierarchy) ([]float64, error) {
			out, _, err := SortOmega(h, m, omega, data)
			return out, err
		}},
	} {
		h := machine.TwoLevel(int64(m))
		out, err := sorter.run(h)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s (n=%d, m=%d, ω=%g): error %v, want one naming %q", sorter.name, len(data), m, omega, err, want)
		}
		if out != nil {
			t.Fatalf("%s: returned %d words alongside the error", sorter.name, len(out))
		}
		if !reflect.DeepEqual(*h.Counters(), untouched) {
			t.Fatalf("%s: charged the machine before rejecting NaN: %+v", sorter.name, *h.Counters())
		}
	}
}

// Every entry point refuses NaN input before it charges anything, naming the
// first NaN. Before the check, the small-write schedule (and SortOmega when
// it picked it, as at 100 words, m = 32, ω = 64) panicked with an index out
// of range, and the merge sort returned an unsorted result without error.
func TestSortRejectsNaN(t *testing.T) {
	one := randData(100, 61)
	one[40] = math.NaN()
	if s, _ := PlanOmega(100, 32, 64); s != StrategySmallWrite {
		t.Fatalf("100 words, m=32, ω=64 plans %v; the case needs the small-write schedule", s)
	}
	checkRejectsNaN(t, one, 32, 64, 40)

	three := randData(300, 62)
	for _, i := range []int{250, 17, 99} {
		three[i] = math.NaN()
	}
	checkRejectsNaN(t, three, 32, 1, 17)
	checkRejectsNaN(t, []float64{math.NaN()}, 32, 1, 0)
	checkRejectsNaN(t, []float64{1, math.NaN(), 0}, 64, 1, 1)
}

// Sorting 2^16 words allocates per sort and per merge pass, never per word:
// through container/heap every merged word was boxed twice (262,000
// allocations at this size).
func TestSortAllocsPerSort(t *testing.T) {
	data := randData(1<<16, 63)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Sort(machine.TwoLevel(256), 256, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Sort of 2^16 words: %v allocations, want at most 64", allocs)
	}
}
