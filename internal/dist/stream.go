package dist

import (
	"io"
	"sync"
	"time"

	"writeavoid/internal/machine"
)

// AggregateStream is the distributed counterpart of machine.StreamRecorder:
// it periodically reads the machine's Aggregate — the counters each rank
// publishes at every Barrier, safe to read while processors are still
// running — and emits the merged totals as the same delta+cumulative JSONL
// records the sequential stream uses, so a long parallel run can be watched
// live, superstep by superstep. Because it polls merged counters rather than
// counting events, its records report Events = 0 (unknown).
//
// Flush may be called from any goroutine (including concurrently with the
// ticker started by Start); emissions are serialized internally. Start and
// Close may race from different goroutines too: lifecycle state is guarded by
// its own mutex, and Close is idempotent — exactly one final record is
// emitted no matter how many goroutines call it.
type AggregateStream struct {
	m  *Machine
	mu sync.Mutex // orders emissions
	sw *machine.StreamWriter

	life   sync.Mutex // guards stop/done/closed
	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// NewAggregateStream builds a stream of machine-wide snapshots over w.
// Drive it manually with Flush (e.g. at phase boundaries from rank 0), or
// start a wall-clock ticker with Start; finish with Close either way.
func (m *Machine) NewAggregateStream(w io.Writer) *AggregateStream {
	return &AggregateStream{m: m, sw: machine.NewStreamWriter(w)}
}

// Flush merges the ranks' published counters and emits one record labeled
// with phase.
func (s *AggregateStream) Flush(phase string) error {
	return s.emit(phase, false)
}

func (s *AggregateStream) emit(phase string, final bool) error {
	// Merge under the same lock that orders emissions so cumulative
	// snapshots are monotone on the wire (a merge taken later can only be
	// larger, and it must be written later too).
	s.mu.Lock()
	defer s.mu.Unlock()
	cum := machine.SnapshotOf(s.m.cfg.Levels, s.m.Aggregate())
	return s.sw.Emit(phase, 0, 0, cum, final)
}

// Start launches a background goroutine flushing every interval until Close.
// Starting twice (or after Close) panics.
func (s *AggregateStream) Start(interval time.Duration) {
	s.life.Lock()
	defer s.life.Unlock()
	if s.closed {
		panic("dist: AggregateStream started after Close")
	}
	if s.stop != nil {
		panic("dist: AggregateStream started twice")
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = s.emit("", false)
			case <-stop:
				return
			}
		}
	}(s.stop, s.done)
}

// Close stops the ticker (if started), waits for its goroutine to exit, and
// emits the final cumulative record; its Cum is exactly Aggregate() rendered
// as a snapshot, so a run that ends between ticks still gets its last deltas
// flushed. Close is idempotent: concurrent or repeated calls stop the ticker
// and write the final record exactly once, and every call returns the first
// write error seen over the stream's lifetime.
func (s *AggregateStream) Close() error {
	s.life.Lock()
	if s.closed {
		s.life.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.sw.Err()
	}
	s.closed = true
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.life.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	_ = s.emit("", true)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sw.Err()
}
