package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"writeavoid/internal/machine"
)

// HeatmapRecorder counts the words read and written per fixed-size address
// block, either from the EvRange annotations block transfers attach at one
// interface (which words crossed the slow interface) or from the raw
// EvTouch element stream (which words the processor itself accessed). The
// write map is the paper's central claim made spatial: a write-avoiding
// matmul writes each block of the output exactly once at the slow
// interface, while the k-outermost classical order rewrites each block
// n/b times.
type HeatmapRecorder struct {
	machine.Sources
	iface      int // interface EvRange events must match; < 0 = touch mode
	blockWords int64
	writes     map[uint64]int64 // block index -> words written
	reads      map[uint64]int64 // block index -> words read
}

// NewRangeHeatmap builds a heatmap fed by the EvRange annotations at
// interface iface, bucketing addresses into blocks of blockWords words.
func NewRangeHeatmap(iface int, blockWords int64) *HeatmapRecorder {
	if blockWords <= 0 {
		panic("profile: heatmap block size must be positive")
	}
	return &HeatmapRecorder{
		iface:      iface,
		blockWords: blockWords,
		writes:     make(map[uint64]int64),
		reads:      make(map[uint64]int64),
	}
}

// NewTouchHeatmap builds a heatmap fed by the per-element EvTouch stream.
func NewTouchHeatmap(blockWords int64) *HeatmapRecorder {
	h := NewRangeHeatmap(0, blockWords)
	h.iface = -1
	return h
}

// WantsTouch subscribes the recorder to the touch/range stream, the only
// events that carry addresses.
func (h *HeatmapRecorder) WantsTouch() bool { return true }

// Record consumes a block of events in order.
func (h *HeatmapRecorder) Record(events []machine.Event) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case machine.EvTouch:
			if h.iface < 0 {
				// Touch addresses are byte addresses of 8-byte elements
				// (access.Region); scale to element units so both modes
				// and blockWords speak words.
				h.accumulate(e.Addr/8, 1, e.Write)
			}
		case machine.EvRange:
			if h.iface >= 0 && e.Arg == h.iface {
				h.accumulate(e.Addr, e.Words, e.Write)
			}
		}
	}
}

// accumulate spreads the run [addr, addr+words) over its blocks.
func (h *HeatmapRecorder) accumulate(addr uint64, words int64, write bool) {
	m := h.reads
	if write {
		m = h.writes
	}
	bw := uint64(h.blockWords)
	for words > 0 {
		block := addr / bw
		in := int64(bw - addr%bw) // words left in this block
		if in > words {
			in = words
		}
		m[block] += in
		addr += uint64(in)
		words -= in
	}
}

// BlockWords returns the block size in words.
func (h *HeatmapRecorder) BlockWords() int64 { return h.blockWords }

// WriteCount and ReadCount return the words written/read in the block
// holding addr (buffered events synced first, like every read method here).
func (h *HeatmapRecorder) WriteCount(addr uint64) int64 {
	h.Sync()
	return h.writes[addr/uint64(h.blockWords)]
}
func (h *HeatmapRecorder) ReadCount(addr uint64) int64 {
	h.Sync()
	return h.reads[addr/uint64(h.blockWords)]
}

// Blocks returns the sorted indices of every block with any traffic.
func (h *HeatmapRecorder) Blocks() []uint64 {
	h.Sync()
	seen := map[uint64]bool{}
	var out []uint64
	for b := range h.writes {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for b := range h.reads {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteExtremes returns the smallest and largest per-block write count over
// the blocks of the region [base, base+words) — the one-line check that a
// region was written uniformly (min == max == blockWords for exactly-once).
func (h *HeatmapRecorder) WriteExtremes(base uint64, words int64) (min, max int64) {
	h.Sync()
	first := true
	bw := uint64(h.blockWords)
	for b := base / bw; b <= (base+uint64(words)-1)/bw; b++ {
		c := h.writes[b]
		if first || c < min {
			min = c
		}
		if first || c > max {
			max = c
		}
		first = false
	}
	return min, max
}

// heatRamp maps intensity 0..9 to a glyph; index 0 is "no traffic".
const heatRamp = " .:-=+*#%@"

// Render writes the write heatmap of the region [base, base+words) as an
// ASCII grid, cols blocks per row, each cell one glyph scaled to the
// region's hottest block. A uniform exactly-once region renders as a solid
// field of one glyph.
func (h *HeatmapRecorder) Render(w io.Writer, base uint64, words int64, cols int) {
	h.Sync()
	if cols <= 0 {
		cols = 64
	}
	bw := uint64(h.blockWords)
	lo := base / bw
	hi := (base + uint64(words) - 1) / bw
	var max int64
	for b := lo; b <= hi; b++ {
		if c := h.writes[b]; c > max {
			max = c
		}
	}
	fmt.Fprintf(w, "write heatmap: %d blocks of %d words, max %d words/block\n",
		hi-lo+1, h.blockWords, max)
	if max == 0 {
		fmt.Fprintln(w, "(no writes)")
		return
	}
	var row strings.Builder
	for b := lo; b <= hi; b++ {
		c := h.writes[b]
		idx := 0
		if c > 0 {
			// 1..9, proportional to the hottest block.
			idx = 1 + int((c*int64(len(heatRamp)-2))/max)
			if idx >= len(heatRamp) {
				idx = len(heatRamp) - 1
			}
		}
		row.WriteByte(heatRamp[idx])
		if int(b-lo)%cols == cols-1 {
			fmt.Fprintln(w, row.String())
			row.Reset()
		}
	}
	if row.Len() > 0 {
		fmt.Fprintln(w, row.String())
	}
}
