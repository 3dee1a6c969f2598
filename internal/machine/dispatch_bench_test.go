package machine

import (
	"testing"
)

// Engine-dispatch microbenchmarks: per-event cost of the hot recording paths
// with the recorder complements the real drivers attach. Run against the
// pre-batching engine for an apples-to-apples events/sec comparison.

// discardSink is a recorder that drops what it receives: the benchmark
// times the engine's buffer and flush path alone.
type discardSink struct{}

func (discardSink) Record([]Event) {}

func BenchmarkLoadToRecorder(b *testing.B) {
	h := New(false, Level{Name: "DRAM"}, Level{Name: "NVM"})
	h.Attach(discardSink{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 8)
	}
	h.Flush()
}

func BenchmarkLoadToLedger(b *testing.B) {
	h := New(false, Level{Name: "DRAM"}, Level{Name: "NVM"})
	h.Attach(NewLedger(nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 8)
	}
	h.Flush()
}

func BenchmarkLoadNoRecorder(b *testing.B) {
	h := New(false, Level{Name: "DRAM"}, Level{Name: "NVM"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 8)
	}
}
