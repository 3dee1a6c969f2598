package core

import (
	"strconv"

	"writeavoid/internal/machine"
)

// Interned span-label families for the hot loops: the drivers emit one span
// per output block / panel / contraction step, and the same indices recur
// run after run, so each label is formatted exactly once per process and the
// steady-state label path allocates nothing (the zero-alloc half of the
// batched engine's hot-path contract; the labels are shared across Plans).
var (
	panelLabels  = machine.NewSpanLabels(func(i int) string { return "panel " + strconv.Itoa(i) })
	kLabels      = machine.NewSpanLabels(func(k int) string { return "k=" + strconv.Itoa(k) })
	cBlockLabels = machine.NewSpanLabels2(func(i, j int) string {
		return "C[" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "]"
	})
	bBlockLabels = machine.NewSpanLabels2(func(i, j int) string {
		return "B[" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "]"
	})
)
