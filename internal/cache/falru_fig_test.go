//go:build !race

package cache_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate "+figPinsFile+" with the reference FALRU")

const (
	figPinsFile = "testdata/falru_fig_points.json"
	// The simulated L3 of the Figure 2 and 5 experiments (DESIGN.md §4).
	figL3Bytes, figLineBytes = 128 << 10, 64
)

// figPin is every counter of one Figure 2 or 5 quick point.
type figPin struct {
	Panel string      `json:"panel"`
	Mid   int         `json:"mid"`
	Stats cache.Stats `json:"stats"`
}

// blockTee feeds one access stream to two caches, to one access by access
// and to the other in blocks, whichever way the stream arrives.
type blockTee struct {
	one, blk *cache.FALRU
	buf      []access.Op
}

func (t *blockTee) Access(addr uint64, write bool) {
	t.one.Access(addr, write)
	t.buf = append(t.buf, access.Op{Addr: addr, Write: write})
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

func (t *blockTee) AccessBatch(ops []access.Op) {
	for _, op := range ops {
		t.one.Access(op.Addr, op.Write)
	}
	t.blk.AccessBatch(ops)
}

func (t *blockTee) flush() {
	t.blk.AccessBatch(t.buf)
	t.buf = t.buf[:0]
}

// TestFALRUFigurePins pins every Stats field of every Figure 2 and Figure 5
// quick point, through Access and through AccessBatch, to the counts the
// reference FALRU gives (regenerate with -update). It replays 10^9 accesses
// on one goroutine, where the race detector has nothing to find but would
// stretch the run past the test timeout, so race-instrumented builds leave
// this file out and CI runs it uninstrumented.
func TestFALRUFigurePins(t *testing.T) {
	traces := append(experiments.Fig2Traces(true), experiments.Fig5Traces(true)...)
	if *update {
		pins := make([]figPin, len(traces))
		for i, tr := range traces {
			ref := cache.NewRefFALRU(figL3Bytes, figLineBytes)
			tr.Run(ref)
			ref.FlushDirty()
			pins[i] = figPin{tr.Panel, tr.Mid, ref.Stats()}
		}
		b, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figPinsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(figPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var pins []figPin
	if err := json.Unmarshal(b, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != len(traces) {
		t.Fatalf("%d pinned points, %d traces", len(pins), len(traces))
	}
	for i, tr := range traces {
		want := pins[i]
		if tr.Panel != want.Panel || tr.Mid != want.Mid {
			t.Fatalf("point %d is %s mid %d, pinned %s mid %d", i, tr.Panel, tr.Mid, want.Panel, want.Mid)
		}
		tee := &blockTee{
			one: cache.NewFALRU(figL3Bytes, figLineBytes),
			blk: cache.NewFALRU(figL3Bytes, figLineBytes),
			buf: make([]access.Op, 0, 1000),
		}
		tr.Run(tee)
		tee.flush()
		for path, c := range map[string]*cache.FALRU{"Access": tee.one, "AccessBatch": tee.blk} {
			c.FlushDirty()
			if got := c.Stats(); got != want.Stats {
				t.Errorf("%s mid %d through %s: %+v, pinned %+v", tr.Panel, tr.Mid, path, got, want.Stats)
			}
		}
	}
}
