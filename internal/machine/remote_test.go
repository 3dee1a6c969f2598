package machine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The central NUMA invariant: remote loads/stores are sub-counters of the
// unchanged totals, never a parallel traffic class. LoadRemote(i, w) must move
// every counter Load(i, w) moves, plus the remote split.
func TestRemoteWordsAreSubCounters(t *testing.T) {
	local := TwoLevel(64)
	mixed := TwoLevel(64)

	local.Load(0, 10)
	local.Load(0, 6)
	local.Store(0, 8)

	mixed.Load(0, 10)
	mixed.LoadRemote(0, 6)
	mixed.StoreRemote(0, 8)

	lc, mc := local.Interface(0), mixed.Interface(0)
	if lc.LoadWords != mc.LoadWords || lc.StoreWords != mc.StoreWords ||
		lc.LoadMsgs != mc.LoadMsgs || lc.StoreMsgs != mc.StoreMsgs {
		t.Fatalf("totals diverge: local %+v mixed %+v", lc, mc)
	}
	if mc.RemoteLoadWords != 6 || mc.RemoteStoreWords != 8 {
		t.Fatalf("remote split wrong: %+v", mc)
	}
	if lc.RemoteLoadWords != 0 || lc.RemoteStoreWords != 0 {
		t.Fatalf("local-only run recorded remote words: %+v", lc)
	}
	// Occupancy moves identically: remote is a price tag, not a data path.
	ls, ms := local.Snapshot(), mixed.Snapshot()
	if ls.Levels[0].Occupancy != ms.Levels[0].Occupancy {
		t.Fatalf("occupancy diverged: %d vs %d", ls.Levels[0].Occupancy, ms.Levels[0].Occupancy)
	}
}

// A remote-flagged event reaches per-worker counter shards (merged with Add,
// as a dist machine merges its ranks) and a ledger's growing counters the
// same way.
func TestRemoteEventsInShardsAndGrowingCounters(t *testing.T) {
	a, b := NewCounterSet(2), NewCounterSet(2)
	a.Record([]Event{
		{Kind: EvLoad, Arg: 0, Words: 10},
		{Kind: EvFlops, Words: 5},
	})
	b.Record([]Event{
		{Kind: EvLoad, Arg: 0, Words: 4, Remote: true},
		{Kind: EvStore, Arg: 0, Words: 3, Remote: true},
	})

	cs := NewCounterSet(2)
	cs.Add(a)
	cs.Add(b)
	if cs.Iface[0].LoadWords != 14 || cs.Iface[0].RemoteLoadWords != 4 {
		t.Fatalf("merged loads: %+v", cs.Iface[0])
	}
	if cs.Iface[0].StoreWords != 3 || cs.Iface[0].RemoteStoreWords != 3 {
		t.Fatalf("merged stores: %+v", cs.Iface[0])
	}
	if cs.FlopCount != 5 {
		t.Fatalf("merged flops: %+v", cs)
	}

	l := NewLedger(GenericLevels(2))
	l.Record([]Event{{Kind: EvLoad, Arg: 0, Words: 4, Remote: true}})
	if s := l.Snapshot(); s.Interfaces[0].RemoteLoadWords != 4 || s.Interfaces[0].LoadWords != 4 {
		t.Fatalf("growing snapshot: %+v", s.Interfaces[0])
	}

	// Add and Reset fold/zero the remote fields with everything else.
	sum := NewCounterSet(2)
	sum.Add(cs)
	sum.Add(cs)
	if sum.Iface[0].RemoteLoadWords != 8 || sum.Iface[0].RemoteStoreWords != 6 {
		t.Fatalf("Add dropped remote fields: %+v", sum.Iface[0])
	}
	sum.Reset()
	if sum.Iface[0].RemoteLoadWords != 0 || sum.Iface[0].RemoteStoreWords != 0 {
		t.Fatalf("Reset kept remote fields: %+v", sum.Iface[0])
	}
}

// Snapshots with remote splits stay a group under Sub/Add, and combining
// across grown geometry pads rather than panics.
func TestSnapshotRemoteSubAddAndPadding(t *testing.T) {
	h := TwoLevel(128)
	h.LoadRemote(0, 12)
	a := h.Snapshot()
	h.StoreRemote(0, 5)
	h.Load(0, 2)
	b := h.Snapshot()

	d := b.Sub(a)
	if d.Interfaces[0].RemoteStoreWords != 5 || d.Interfaces[0].RemoteLoadWords != 0 {
		t.Fatalf("delta remote split: %+v", d.Interfaces[0])
	}
	if d.Interfaces[0].LoadWords != 2 || d.Interfaces[0].StoreWords != 5 {
		t.Fatalf("delta totals: %+v", d.Interfaces[0])
	}
	if got := a.Add(d); !reflect.DeepEqual(got, b) {
		t.Fatalf("a + (b-a) != b:\ngot = %+v\nb   = %+v", got, b)
	}

	// Socket geometry mismatch across a grown stream: the two-level snapshot
	// (with remote counts) combines with a three-level one by padding.
	h3 := New(false, Level{Name: "l1", Size: 8}, Level{Name: "l2", Size: 64}, Level{Name: "dram"})
	h3.LoadRemote(1, 9)
	big := h3.Snapshot()
	sum := b.Add(big)
	if len(sum.Interfaces) != 2 {
		t.Fatalf("padded sum has %d interfaces", len(sum.Interfaces))
	}
	if sum.Interfaces[0].RemoteLoadWords != 12 || sum.Interfaces[1].RemoteLoadWords != 9 {
		t.Fatalf("padded remote counts: %+v", sum.Interfaces)
	}
	back := sum.Sub(big)
	if back.Interfaces[0].RemoteLoadWords != 12 || back.Interfaces[1].RemoteLoadWords != 0 {
		t.Fatalf("pad round trip: %+v", back.Interfaces)
	}
}

// The single-socket wire-format pin: a run with no remote accesses marshals to
// JSON with no remote keys at all — byte-identical to the pre-socket format.
func TestFlatSnapshotJSONHasNoRemoteKeys(t *testing.T) {
	h := TwoLevel(64)
	h.Load(0, 10)
	h.Store(0, 4)
	h.Flops(100)
	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(raw)), "remote") {
		t.Fatalf("flat snapshot JSON leaks remote keys: %s", raw)
	}

	// And the moment one remote word is recorded, the keys appear.
	h.LoadRemote(0, 1)
	raw, err = json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"remoteLoadWords":1`) {
		t.Fatalf("remote split missing from JSON: %s", raw)
	}
}
