package machine

import "writeavoid/internal/access"

// TraceRecorder bridges the hierarchy's EvTouch stream to an address-trace
// sink such as a cache simulator. Attach one to a Hierarchy and the counted
// algorithm drivers double as trace emitters; detach it (or never attach one)
// and the per-element fast path disappears entirely. A sink that implements
// access.BatchSink receives each flushed block's touches in one call.
//
// The sink is external state the recorder cannot guard: with the batched
// engine, call Sync (or flush/detach the hierarchy) before reading simulator
// results, or the tail of the trace may still sit in the event buffer.
type TraceRecorder struct {
	Sources
	sink  access.Sink
	batch access.BatchSink // sink's block path, nil when it has none
	ops   []access.Op      // one block's touches, reused across flushes
}

// NewTraceRecorder wraps sink as a touch-interested recorder.
func NewTraceRecorder(sink access.Sink) *TraceRecorder {
	t := &TraceRecorder{sink: sink}
	t.batch, _ = sink.(access.BatchSink)
	return t
}

// Record forwards element accesses and ignores every other event.
func (t *TraceRecorder) Record(e Event) {
	if e.Kind == EvTouch {
		t.sink.Access(e.Addr, e.Write)
	}
}

// RecordBatch forwards a block of element accesses in order.
func (t *TraceRecorder) RecordBatch(events []Event) {
	if t.batch == nil {
		for i := range events {
			if events[i].Kind == EvTouch {
				t.sink.Access(events[i].Addr, events[i].Write)
			}
		}
		return
	}
	ops := t.ops[:0]
	for i := range events {
		if events[i].Kind == EvTouch {
			ops = append(ops, access.Op{Addr: events[i].Addr, Write: events[i].Write})
		}
	}
	t.ops = ops
	if len(ops) > 0 {
		t.batch.AccessBatch(ops)
	}
}

// WantsTouch opts into the per-element stream.
func (t *TraceRecorder) WantsTouch() bool { return true }
