package cache

import (
	"writeavoid/internal/access"
	"writeavoid/internal/machine"
)

// BeladyRecorder lifts the offline-optimal (Belady furthest-next-use)
// cache simulation to a machine.Recorder: attach it to a traced Hierarchy
// and the EvTouch element stream is buffered as a trace; Stats replays it
// through SimulateOPT on first use. Counted drivers can thus report
// ideal-cache victim counts — the reference line of the Figure 2
// experiments — without a separate pass through a trace emitter such as
// core.MatMulTrace.
//
// Offline optimality fundamentally needs the whole trace before the first
// replacement decision, so buffering is not an implementation shortcut;
// the recorder spends O(touches) memory, like access.Recorder does. Touch
// addresses pass through unscaled — core.Tracer emits byte addresses
// (access.Region), the same address space every other simulator here
// consumes.
type BeladyRecorder struct {
	machine.Sources
	sizeBytes int
	lineBytes int
	ops       []access.Op

	stats    Stats
	simmed   bool
	simmedAt int // len(ops) the cached stats were computed over
}

// NewBeladyRecorder builds a recorder simulating an ideal cache of
// sizeBytes capacity and lineBytes lines over the byte-addressed touch
// stream.
func NewBeladyRecorder(sizeBytes, lineBytes int) *BeladyRecorder {
	return &BeladyRecorder{
		sizeBytes: sizeBytes,
		lineBytes: lineBytes,
	}
}

// WantsTouch subscribes the recorder to the per-element stream.
func (r *BeladyRecorder) WantsTouch() bool { return true }

// Record buffers one touch; every other event kind carries no address.
func (r *BeladyRecorder) Record(e machine.Event) {
	if e.Kind != machine.EvTouch {
		return
	}
	r.ops = append(r.ops, access.Op{Addr: e.Addr, Write: e.Write})
}

// RecordBatch buffers a block of touches.
func (r *BeladyRecorder) RecordBatch(events []machine.Event) {
	for i := range events {
		if events[i].Kind == machine.EvTouch {
			r.ops = append(r.ops, access.Op{Addr: events[i].Addr, Write: events[i].Write})
		}
	}
}

// Len returns the number of buffered accesses (events still batch-buffered
// in attached hierarchies synced in first).
func (r *BeladyRecorder) Len() int {
	r.Sync()
	return len(r.ops)
}

// Stats replays the buffered trace through Belady's policy and returns the
// resulting counters (VictimsM is the ideal write-back count, end-of-trace
// flush included, exactly as SimulateOPT reports it). The replay is cached
// and recomputed only when more touches arrived since.
func (r *BeladyRecorder) Stats() Stats {
	r.Sync()
	if !r.simmed || r.simmedAt != len(r.ops) {
		r.stats = SimulateOPT(r.ops, r.sizeBytes, r.lineBytes)
		r.simmed = true
		r.simmedAt = len(r.ops)
	}
	return r.stats
}
