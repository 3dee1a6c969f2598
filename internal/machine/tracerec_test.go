package machine

import (
	"testing"

	"writeavoid/internal/access"
)

// blockSink records every access and which path it arrived by.
type blockSink struct {
	ops            []access.Op
	single, blocks int
}

func (s *blockSink) Access(addr uint64, write bool) {
	s.single++
	s.ops = append(s.ops, access.Op{Addr: addr, Write: write})
}

func (s *blockSink) AccessBatch(ops []access.Op) {
	s.blocks++
	s.ops = append(s.ops, ops...)
}

// A batch-capable sink receives each flushed block's touches, in order and
// with nothing else, in one call; the recorder's block reuses its storage.
func TestTraceRecorderHandsBlocksToBatchSinks(t *testing.T) {
	h := TwoLevel(64)
	h.SetBatchCapacity(8)
	sink := &blockSink{}
	h.Attach(NewTraceRecorder(sink))
	want := make([]access.Op, 0, 1<<12)
	step := func(i int) {
		op := access.Op{Addr: uint64(i) * 8, Write: i%3 == 0}
		h.Touch(op.Addr, op.Write)
		want = append(want, op)
		if i%4 == 0 {
			h.Load(0, 1) // non-touch events must not reach the sink
			h.Discard(0, 1)
		}
	}
	for i := 0; i < 40; i++ {
		step(i)
	}
	h.Flush()
	if sink.single != 0 || sink.blocks < 40/8 {
		t.Fatalf("%d single accesses and %d blocks, want 0 and >= %d", sink.single, sink.blocks, 40/8)
	}
	if len(sink.ops) != len(want) {
		t.Fatalf("sink saw %d ops, want %d", len(sink.ops), len(want))
	}
	for i := range want {
		if sink.ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, sink.ops[i], want[i])
		}
	}
	// AllocsPerRun rounds down, so each run is 400 touches: a single
	// allocation among them fails the test.
	sink.ops = make([]access.Op, 0, 1<<12)
	i := 40
	avg := testing.AllocsPerRun(4, func() {
		for range 400 {
			step(i)
			i++
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state block handoff allocates %v per 400 touches, want 0", avg)
	}
}
