package machine

// This file is the batched dispatch layer of the event engine. A Hierarchy
// appends events to a fixed-capacity buffer and hands each recorder the
// whole block in one Record call, so a locked or atomic sink pays its
// synchronization once per block instead of once per primitive.
//
// Delivery contract (pinned by internal/enginecheck): every recorder gets
// the same events in the same order at any batch capacity, so every
// Snapshot, stream record, span delta and conformance verdict derived from
// them is bit-identical to delivery one event at a time (capacity 1).
// Batching changes WHEN events arrive, never WHICH events or in what order.
// A recorder whose state is read between flushes bridges the gap with
// Sources: the hierarchy registers itself as a dirty source while it holds
// buffered events, and the recorder's read and mark methods call Sync
// first, so no reader observes a torn prefix. A flush never syncs. Whoever
// records into such a recorder directly, beside buffered hierarchies, calls
// Sync first, so that the direct events do not overtake buffered ones.

import "sync"

// DefaultBatchEvents is the event-buffer capacity a Hierarchy allocates when
// SetBatchCapacity was not called: large enough to amortize dispatch to a
// handful of recorders, small enough (10 KB of 40-byte Event values) to stay
// cache-resident per P.
const DefaultBatchEvents = 256

// batchPool recycles default-capacity event buffers between hierarchies
// (see Hierarchy.Release). Reuse is safe because no recorder keeps a
// delivered block past Record: a hierarchy already overwrites its buffer
// after every flush.
var batchPool = sync.Pool{New: func() any { return new([DefaultBatchEvents]Event) }}

// Flusher is anything holding buffered events it can push downstream;
// Hierarchy is the canonical implementation.
type Flusher interface {
	Flush()
}

// BatchAware is an optional Recorder refinement for recorders whose state is
// read from outside the event stream (Snapshot, Phase, Stats, span trees):
// a Hierarchy tells such recorders when it starts holding buffered events for
// them (SourceDirty) and when its buffer drains (SourceClean), so the
// recorder's read methods can flush exactly the sources with pending events
// before answering. Embed Sources for the standard implementation.
type BatchAware interface {
	SourceDirty(Flusher)
	SourceClean(Flusher)
}

// Sources is the standard BatchAware implementation: a small set of dirty
// upstream Flushers in first-dirtied order. Recorders embed it and call Sync
// at the top of every externally-called read or mark method; the steady-state
// cost when nothing is buffered is a nil-slice length check.
//
// Like the recorders that embed it, Sources is driven synchronously from the
// recording goroutine and is not itself goroutine-safe; internally locked
// recorders (monitor.Monitor) must call Sync only from the recording side,
// never from concurrent readers.
type Sources struct {
	dirty   []Flusher
	scratch []Flusher
}

// SourceDirty registers f as holding buffered events for this recorder.
// Duplicate registrations are ignored (the dirty set is small: one entry per
// concurrently-observed hierarchy).
func (s *Sources) SourceDirty(f Flusher) {
	for _, d := range s.dirty {
		if d == f {
			return
		}
	}
	s.dirty = append(s.dirty, f)
}

// SourceClean removes f from the dirty set (called by the source once its
// buffer drained). Keeps capacity so dirty/clean cycles do not allocate.
func (s *Sources) SourceClean(f Flusher) {
	for i, d := range s.dirty {
		if d == f {
			s.dirty = append(s.dirty[:i], s.dirty[i+1:]...)
			return
		}
	}
}

// Sync flushes every dirty source, in first-dirtied order, delivering all
// buffered events (to this recorder and any other recorder sharing those
// hierarchies). Call it before reading or marking state fed by attached
// hierarchies. No-op when nothing is buffered.
func (s *Sources) Sync() {
	if len(s.dirty) == 0 {
		return
	}
	// Flushing mutates s.dirty via SourceClean; iterate a snapshot.
	s.scratch = append(s.scratch[:0], s.dirty...)
	for _, f := range s.scratch {
		f.Flush()
	}
}
