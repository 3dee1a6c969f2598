//go:build !race

package flight

import (
	"runtime"
	"testing"
)

// A 4096-event flight recorder is its ring — 4096 pointer-free 16-byte
// slots, 64 KiB — plus a few small headers (the recorder, its label table
// and its private ledger).
func TestNewRingBytes(t *testing.T) {
	const runs = 16
	keep := make([]*Recorder, 0, runs)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		keep = append(keep, New(4096, nil))
	}
	runtime.ReadMemStats(&b)
	perRing := (b.TotalAlloc - a.TotalAlloc) / runs
	if limit := uint64(64<<10 + 4<<10); perRing > limit {
		t.Fatalf("flight.New(4096, nil) allocates %d bytes, want at most %d", perRing, limit)
	}
	runtime.KeepAlive(keep)
}
