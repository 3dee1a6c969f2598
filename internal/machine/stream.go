package machine

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the live-observability layer over the event engine: a
// StreamRecorder reads the ledger attached to one or more hierarchies and
// periodically flushes JSON-line records pairing a delta snapshot (events
// since the previous record) with the cumulative snapshot, so a long run can
// be monitored and plotted while it executes instead of only post-hoc. The
// paper's claims are trajectories — writes to slow memory staying flat at
// Θ(output) while loads grow — and the stream is those trajectories on the
// wire.
//
// Exactness invariant (pinned by tests here and in cmd/wabench): the
// counter-wise sum of every record's delta equals the final record's
// cumulative snapshot, which equals the post-hoc snapshot of the same
// counters. Nothing is sampled or rounded; records are just differences of
// exact counters.

// StreamRecord is one JSON line of a metrics stream.
type StreamRecord struct {
	// Seq numbers records from 0 within one stream.
	Seq int64 `json:"seq"`
	// Phase is the label of the phase the delta's events belong to (the
	// label current when the events were recorded, empty before any
	// Phase call).
	Phase string `json:"phase,omitempty"`
	// Events counts the events folded into Delta, when the producer
	// counts events (StreamRecorder does; poll-based producers such as
	// dist aggregate streams report 0 = unknown).
	Events int64 `json:"events,omitempty"`
	// TotalEvents is the running event count across the whole stream.
	TotalEvents int64 `json:"totalEvents,omitempty"`
	// Final marks the closing record of a stream; its Cum is the
	// stream's complete total.
	Final bool `json:"final,omitempty"`
	// Delta is the snapshot of exactly the events since the previous
	// record (or since the start, for the first record).
	Delta Snapshot `json:"delta"`
	// Cum is the cumulative snapshot at emission time.
	Cum Snapshot `json:"cum"`
}

// StreamWriter is the low-level JSONL emitter shared by StreamRecorder and
// poll-based producers (dist.AggregateStream): it sequences records, diffs
// each cumulative snapshot against the previous one, and writes one JSON
// line per record. It is not safe for concurrent use; callers that emit from
// multiple goroutines must serialize.
type StreamWriter struct {
	w       io.Writer
	enc     *json.Encoder
	seq     int64
	prev    Snapshot
	hasPrev bool
	err     error
}

// NewStreamWriter wraps w. Records are written unindented, one per line.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, enc: json.NewEncoder(w)}
}

// Emit writes one record: the cumulative snapshot cum, its delta against the
// previously emitted cumulative snapshot, and the given labels. The first
// emitted record's delta equals its cumulative snapshot. After a write error
// the writer goes inert and keeps returning that first error.
func (sw *StreamWriter) Emit(phase string, events, totalEvents int64, cum Snapshot, final bool) error {
	if sw.err != nil {
		return sw.err
	}
	delta := cum
	if sw.hasPrev {
		delta = cum.Sub(sw.prev)
	}
	rec := StreamRecord{
		Seq:         sw.seq,
		Phase:       phase,
		Events:      events,
		TotalEvents: totalEvents,
		Final:       final,
		Delta:       delta,
		Cum:         cum,
	}
	if err := sw.enc.Encode(rec); err != nil {
		sw.err = fmt.Errorf("machine: stream write: %w", err)
		return sw.err
	}
	sw.seq++
	sw.prev = cum
	sw.hasPrev = true
	return nil
}

// Seq returns the sequence number the next record will carry.
func (sw *StreamWriter) Seq() int64 { return sw.seq }

// Err returns the first write error, if any.
func (sw *StreamWriter) Err() error { return sw.err }

// StreamRecorder flushes StreamRecords to a writer every Every events and
// on phase marks. It folds nothing itself: it reads a Ledger, which cuts its
// records at the exact N-th event and at every Phase, so it costs the fold
// of no extra counter set. Built on its own it reads a private ledger;
// Follow makes it read a shared one (experiments.Session does, so all of a
// run's sinks share one fold). Attach its Ledger() to a Hierarchy (or to
// several, sequentially — the counters accumulate across all attached
// sources, which is how wabench streams a whole multi-section run as one
// trajectory) and Close it when the run ends to emit the final cumulative
// record.
//
// The geometry grows on demand: observing an event for a level or
// interface beyond the current level list extends it with generically
// named levels ("L2", "L3", ...), so one stream can watch hierarchies of
// different depths. It is driven synchronously and is not safe for
// concurrent use; concurrent machines stream through dist.Machine's
// aggregate stream instead.
type StreamRecorder struct {
	led   *Ledger
	sw    *StreamWriter
	every int64
	// start and base are the ledger's event totals when the stream joined
	// it and at its last record; the ledger moves base.
	start, base int64
	closed      bool
}

// GenericLevels returns n placeholder levels named "L0".."Ln-1", for streams
// not tied to one hierarchy's geometry.
func GenericLevels(n int) []Level {
	out := make([]Level, n)
	for i := range out {
		out[i] = Level{Name: fmt.Sprintf("L%d", i)}
	}
	return out
}

// NewStreamRecorder builds a recorder flushing to w every `every` events
// (every <= 0 disables periodic flushing, leaving only Phase marks and
// Close). The level list seeds the snapshot geometry and naming; it must
// hold at least two levels.
func NewStreamRecorder(w io.Writer, levels []Level, every int64) *StreamRecorder {
	if len(levels) < 2 {
		panic("machine: a stream recorder needs at least two levels")
	}
	s := &StreamRecorder{sw: NewStreamWriter(w), every: every}
	s.Follow(NewLedger(levels))
	return s
}

// Follow makes the stream read l from now on: l cuts its records, and its
// Phase marks are the stream's. Call before l folds the events the stream
// should cover; events l folded earlier are in the cumulative snapshots but
// not in any record's event count.
func (s *StreamRecorder) Follow(l *Ledger) {
	if s.led != nil {
		s.led.removeStream(s)
	}
	s.led = l
	l.addStream(s)
}

// Unfollow detaches the stream from its ledger; it emits no more records
// until it follows one again.
func (s *StreamRecorder) Unfollow() {
	if s.led != nil {
		s.led.removeStream(s)
	}
}

// Ledger returns the ledger the stream reads.
func (s *StreamRecorder) Ledger() *Ledger { return s.led }

// StreamTo attaches the ledger of a new StreamRecorder with this
// hierarchy's geometry to the hierarchy and returns the recorder. The caller
// owns it: call Phase to mark sections and Close when done.
func (h *Hierarchy) StreamTo(w io.Writer, every int64) *StreamRecorder {
	s := NewStreamRecorder(w, h.levels, every)
	h.Attach(s.Ledger())
	return s
}

// Phase marks a phase boundary on the stream's ledger: buffered events are
// synced in first (no event emitted before the mark is ever deferred past
// it), the pending delta is flushed under the current phase label, and
// subsequent events take the new label. Consecutive marks with no
// intervening events do not emit empty records.
func (s *StreamRecorder) Phase(name string) { s.led.Phase(name) }

// Flush syncs buffered events and emits a record for any pending ones under
// the current phase.
func (s *StreamRecorder) Flush() {
	s.led.Sync()
	s.led.mu.Lock()
	if !s.closed && s.led.total > s.base {
		s.led.emitLocked(s, false)
		s.led.rearmLocked()
	}
	s.led.unlock()
}

// Close syncs and flushes pending events and emits the final cumulative
// record. It is idempotent; Err reports any write error encountered over the
// stream's lifetime.
func (s *StreamRecorder) Close() error {
	if !s.closed {
		s.led.Sync()
		s.led.mu.Lock()
		s.led.emitLocked(s, true)
		s.closed = true
		s.led.rearmLocked()
		s.led.unlock()
	}
	return s.sw.Err()
}

// Err returns the first write error, if any.
func (s *StreamRecorder) Err() error { return s.sw.Err() }

// Counters exposes the stream's cumulative counter set (the post-hoc totals
// the final record reports), syncing buffered events first.
func (s *StreamRecorder) Counters() *CounterSet {
	s.led.Sync()
	return s.led.Counters()
}

// Snapshot returns the stream's current cumulative snapshot, syncing buffered
// events first.
func (s *StreamRecorder) Snapshot() Snapshot {
	s.led.Sync()
	return s.led.Snapshot()
}
