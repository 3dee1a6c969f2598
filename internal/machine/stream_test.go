package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func decodeStream(t *testing.T, raw []byte) []StreamRecord {
	t.Helper()
	var recs []StreamRecord
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var r StreamRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		recs = append(recs, r)
	}
	return recs
}

// The headline exactness invariant: summed deltas == final cumulative ==
// post-hoc snapshot, counter for counter.
func TestStreamDeltasSumToPostHocSnapshot(t *testing.T) {
	var buf bytes.Buffer
	h := TwoLevel(64)
	s := h.StreamTo(&buf, 7) // deliberately not a divisor of the event count

	s.Phase("fill")
	for i := 0; i < 20; i++ {
		h.Load(0, 3)
		h.Flops(10)
	}
	s.Phase("drain")
	for i := 0; i < 20; i++ {
		h.Store(0, 3)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs := decodeStream(t, buf.Bytes())
	if len(recs) < 3 {
		t.Fatalf("expected several records, got %d", len(recs))
	}
	final := recs[len(recs)-1]
	if !final.Final {
		t.Fatal("last record not marked final")
	}

	sum := recs[0].Delta
	for _, r := range recs[1:] {
		sum = sum.Add(r.Delta)
	}
	if !reflect.DeepEqual(sum, final.Cum) {
		t.Fatalf("summed deltas != final cumulative:\nsum = %+v\ncum = %+v", sum, final.Cum)
	}
	if got, want := final.Cum, h.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final cumulative != post-hoc snapshot:\ncum  = %+v\npost = %+v", got, want)
	}
	if got, want := final.TotalEvents, int64(60); got != want {
		t.Fatalf("total events %d want %d", got, want)
	}

	// Sequence numbers are dense from zero.
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

// Phase marks label the events recorded since the previous mark, and the
// per-phase deltas carve the run at the marks exactly.
func TestStreamPhaseMarks(t *testing.T) {
	var buf bytes.Buffer
	h := TwoLevel(64)
	s := h.StreamTo(&buf, 0) // no periodic flushing: one record per phase

	s.Phase("loads")
	h.Load(0, 5)
	h.Load(0, 5)
	s.Phase("stores")
	h.Store(0, 4)
	s.Phase("empty") // no events: must not emit an empty record
	s.Phase("flops")
	h.Flops(100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs := decodeStream(t, buf.Bytes())
	var phases []string
	for _, r := range recs {
		phases = append(phases, r.Phase)
	}
	want := []string{"loads", "stores", "flops"}
	if got := strings.Join(phases, ","); got != strings.Join(want, ",") {
		t.Fatalf("phases %q want %q", got, strings.Join(want, ","))
	}
	if lw := recs[0].Delta.Interfaces[0].LoadWords; lw != 10 {
		t.Fatalf("loads-phase delta loadWords %d want 10", lw)
	}
	if sw := recs[1].Delta.Interfaces[0].StoreWords; sw != 4 {
		t.Fatalf("stores-phase delta storeWords %d want 4", sw)
	}
	if recs[1].Delta.Interfaces[0].LoadWords != 0 {
		t.Fatal("stores-phase delta leaked load words")
	}
	if fl := recs[2].Delta.Flops; fl != 100 {
		t.Fatalf("flops-phase delta flops %d want 100", fl)
	}
	if !recs[len(recs)-1].Final {
		t.Fatal("last record not final")
	}
}

// One stream can observe hierarchies of different depths: the recorder grows
// its geometry, and totals accumulate across sequentially attached sources.
func TestStreamAcrossHierarchiesGrowsGeometry(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamRecorder(&buf, GenericLevels(2), 0)

	h2 := TwoLevel(64)
	h2.Attach(s.Ledger())
	s.Phase("two-level")
	h2.Load(0, 8)
	h2.Store(0, 8)
	h2.Detach(s.Ledger())

	h3 := New(false, Level{Name: "l1", Size: 8}, Level{Name: "l2", Size: 64}, Level{Name: "dram"})
	h3.Attach(s.Ledger())
	s.Phase("three-level")
	h3.Load(1, 16) // interface 1 forces growth to three levels
	h3.Load(0, 4)
	h3.Detach(s.Ledger())

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeStream(t, buf.Bytes())
	final := recs[len(recs)-1]
	if got := len(final.Cum.Levels); got != 3 {
		t.Fatalf("final snapshot has %d levels, want 3", got)
	}
	if lw := final.Cum.Interfaces[0].LoadWords; lw != 12 {
		t.Fatalf("cumulative iface0 loads %d want 12 (8 from h2 + 4 from h3)", lw)
	}
	if lw := final.Cum.Interfaces[1].LoadWords; lw != 16 {
		t.Fatalf("cumulative iface1 loads %d want 16", lw)
	}
	// Early records keep their two-level geometry on the wire; consumers
	// diff same-geometry runs. The cumulative counters are what must be
	// exact, which the checks above pin.
}

// Snapshot.Sub and Add are exact inverses on arbitrary counter states.
func TestSnapshotSubAddRoundTrip(t *testing.T) {
	h := TwoLevel(128)
	h.Load(0, 40)
	h.Flops(7)
	a := h.Snapshot()
	h.Store(0, 25)
	h.Load(0, 3)
	b := h.Snapshot()

	d := b.Sub(a)
	if d.Interfaces[0].StoreWords != 25 || d.Interfaces[0].LoadWords != 3 {
		t.Fatalf("delta wrong: %+v", d.Interfaces[0])
	}
	if d.Interfaces[0].Traffic != 28 {
		t.Fatalf("delta traffic %d want 28", d.Interfaces[0].Traffic)
	}
	if got := a.Add(d); !reflect.DeepEqual(got, b) {
		t.Fatalf("a + (b-a) != b:\ngot = %+v\nb   = %+v", got, b)
	}
	// Theorem 1 is recomputed on the delta's own counters: 3 loads vs 28
	// words of traffic fails the interval check even though the cumulative
	// snapshot passes.
	if d.Interfaces[0].Theorem1Holds {
		t.Fatal("delta Theorem1Holds should be recomputed on delta counters")
	}
	if !b.Interfaces[0].Theorem1Holds {
		t.Fatal("cumulative Theorem 1 check should hold for this workload")
	}
}

// SnapshotOf on counter shards merged with Add (as dist.Machine.Aggregate
// merges its ranks) matches the wire format of a hierarchy snapshot and
// carries the flop totals.
func TestSnapshotOfMergedShards(t *testing.T) {
	a, b := NewCounterSet(2), NewCounterSet(2)
	a.Record([]Event{{Kind: EvLoad, Arg: 0, Words: 10}, {Kind: EvFlops, Words: 3}})
	b.Record([]Event{{Kind: EvFlops, Words: 4}})
	merged := NewCounterSet(2)
	merged.Add(a)
	merged.Add(b)

	s := SnapshotOf(GenericLevels(2), merged)
	if s.Interfaces[0].LoadWords != 10 || s.Interfaces[0].LoadMsgs != 1 {
		t.Fatalf("merged snapshot iface: %+v", s.Interfaces[0])
	}
	if s.Flops != 7 {
		t.Fatalf("merged snapshot flops %d want 7", s.Flops)
	}
	if s.Levels[0].WritesTo != 10 {
		t.Fatalf("merged snapshot writesTo %d want 10", s.Levels[0].WritesTo)
	}
}
