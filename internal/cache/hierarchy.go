package cache

import "fmt"

// Hierarchy chains caches (fastest first) into a multi-level simulator. An
// access probes level 0; on a miss it recursively probes the next level; the
// line is then filled into every level it missed in (a mostly-inclusive
// design, like the Nehalem-EX the paper measures). A modified line evicted
// from level i is written back into level i+1 as a write access; a modified
// victim of the last level is a memory write-back counted in that level's
// VictimsM.
//
// Hierarchy exists so multi-level instruction orders (the Figure 5 left
// column) can be studied end to end; the Figure 2 experiments drive a single
// L3-sized cache directly, as DESIGN.md explains.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from per-level configs, fastest first. All
// levels must share a line size.
func NewHierarchy(cfgs ...Config) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		if cfg.LineBytes != cfgs[0].LineBytes {
			panic(fmt.Sprintf("cache: level %d line size %d != level 0 line size %d",
				i, cfg.LineBytes, cfgs[0].LineBytes))
		}
		h.levels = append(h.levels, New(cfg))
	}
	return h
}

// Level returns the cache at depth i (0 = fastest).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// NumLevels returns the number of levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// LineBytes returns the shared line size.
func (h *Hierarchy) LineBytes() int { return h.levels[0].LineBytes() }

// Stats returns the counters of the LAST (memory-facing) level, which is the
// level whose VictimsM are true memory write-backs. Per-level counters are
// available via Level(i).Stats().
func (h *Hierarchy) Stats() Stats { return h.levels[len(h.levels)-1].Stats() }

// Access simulates one access through the hierarchy.
func (h *Hierarchy) Access(addr uint64, write bool) {
	h.access(0, addr, write)
}

func (h *Hierarchy) access(lvl int, addr uint64, write bool) {
	c := h.levels[lvl]
	missed, victim, victimDirty := c.access(addr, write)
	if lvl+1 < len(h.levels) {
		if missed {
			// Fill from the level below (a read there, or a write if
			// this was a write access that missed everywhere; the
			// write-allocate fill itself is a read of the line).
			h.access(lvl+1, addr, false)
		}
		if victimDirty {
			// Dirty victim descends one level as a write.
			h.access(lvl+1, victim<<c.lineShift, true)
		}
	}
}

// FlushDirty flushes every level, cascading dirty victims downward so that a
// line dirty only in L1 still reaches the last level as a write-back.
func (h *Hierarchy) FlushDirty() {
	for i, c := range h.levels {
		c.flush(h, i+1)
	}
}
