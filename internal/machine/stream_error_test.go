package machine

import (
	"errors"
	"testing"
)

// failAfter is an io.Writer that starts failing after n successful writes —
// a stand-in for a torn-down pipe or a full disk mid-run.
type failAfter struct {
	n      int
	writes int
}

var errSinkDied = errors.New("sink died")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSinkDied
	}
	return len(p), nil
}

// A stream whose writer dies mid-run must not disturb the run: the recorder
// keeps counting (the counters are the source of truth), emission goes
// inert, and Close surfaces the first write error exactly once.
func TestStreamRecorderSurvivesWriterFailure(t *testing.T) {
	fw := &failAfter{n: 2}
	s := NewStreamRecorder(fw, GenericLevels(2), 1) // flush on every event

	for i := 0; i < 10; i++ {
		s.Ledger().Record([]Event{{Kind: EvLoad, Arg: 0, Words: 64}})
	}
	s.Phase("next")
	s.Ledger().Record([]Event{{Kind: EvStore, Arg: 0, Words: 32}})

	if err := s.Err(); !errors.Is(err, errSinkDied) {
		t.Fatalf("Err() = %v, want wrapped sink error", err)
	}
	if err := s.Close(); !errors.Is(err, errSinkDied) {
		t.Fatalf("Close() = %v, want wrapped sink error", err)
	}
	// The writer was not retried per event after the failure: two successes,
	// then exactly one failing attempt turned the writer inert.
	if fw.writes != fw.n+1 {
		t.Fatalf("writer called %d times after death, want %d", fw.writes, fw.n+1)
	}
	// Counting survived the sink: the snapshot still has every event.
	snap := s.Snapshot()
	if snap.Interfaces[0].LoadWords != 640 || snap.Interfaces[0].StoreWords != 32 {
		t.Fatalf("counters lost events after writer failure: %+v", snap.Interfaces[0])
	}
}

// The StreamWriter contract directly: after the first error every Emit
// returns that same error without touching the writer again.
func TestStreamWriterGoesInert(t *testing.T) {
	fw := &failAfter{n: 0}
	sw := NewStreamWriter(fw)
	cum := SnapshotOf(GenericLevels(2), NewCounterSet(2))
	first := sw.Emit("p", 1, 1, cum, false)
	if first == nil {
		t.Fatal("Emit on a dead writer succeeded")
	}
	if err := sw.Emit("p", 2, 3, cum, true); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("second Emit = %v, want the first error %v", err, first)
	}
	if fw.writes != 1 {
		t.Fatalf("writer retried after death: %d calls", fw.writes)
	}
	if sw.Seq() != 0 {
		t.Fatalf("seq advanced on failure: %d", sw.Seq())
	}
}
