//go:build !race

package dist

import (
	"testing"

	"writeavoid/internal/machine"
)

// dist.New allocates O(P): nine per rank (its Proc, its hierarchy with
// counters, its published counters) and one slot array for the P² links,
// whose channels are made only when a pair first talks. At P=64 that is 589
// allocations; a channel per pair (and an atomic counter shard per rank)
// cost 9,302.
func TestNewAllocatesLinearInP(t *testing.T) {
	cfg := Config{P: 64, Sockets: 2, Levels: []machine.Level{
		{Name: "L1", Size: 1 << 10}, {Name: "L2", Size: 1 << 16}, {Name: "L3"},
	}}
	got := testing.AllocsPerRun(5, func() { New(cfg) })
	if limit := float64(10 * cfg.P); got > limit {
		t.Fatalf("New at P=64 allocates %v times, want at most %v (10 per rank)", got, limit)
	}
}
