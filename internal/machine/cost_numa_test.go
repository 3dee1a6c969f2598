package machine

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)+math.Abs(b)) }

// NUMA layers directional remote penalties on a base model: local words keep
// the base price, remote loads and stores pay their own factors, and penalty 1
// (or a run with no remote words) reproduces the base model exactly.
func TestNUMAModelPricesRemoteWords(t *testing.T) {
	base := SymmetricDRAM(1, 0, 2) // β=2 both directions
	numa := NUMA(base, 2, 4)

	h := TwoLevel(64)
	h.Load(0, 10)       // local: 10*2 = 20
	h.LoadRemote(0, 5)  // remote: 5*2*2 = 20
	h.Store(0, 3)       // local: 3*2 = 6
	h.StoreRemote(0, 7) // remote: 7*2*4 = 56

	if got := numa.Time(h); !almostEq(got, 102) {
		t.Fatalf("NUMA time %g want 102", got)
	}
	// The base model charges every word the local β, remote or not.
	if got := base.Time(h); !almostEq(got, 50) {
		t.Fatalf("base time %g want 50", got)
	}
	// Unit penalties are the identity.
	if got := NUMA(base, 1, 1).Time(h); !almostEq(got, base.Time(h)) {
		t.Fatalf("unit-penalty NUMA %g != base %g", got, base.Time(h))
	}
	// And a remote-free run prices identically under any penalties.
	flat := TwoLevel(64)
	flat.Load(0, 10)
	flat.Store(0, 3)
	if got, want := numa.Time(flat), base.Time(flat); !almostEq(got, want) {
		t.Fatalf("remote-free NUMA time %g != base %g", got, want)
	}
}

// TimeOf evaluates a model against bare counters (merged shards, dist
// aggregates) and must agree with Time on the hierarchy's own counters.
func TestTimeOfMatchesTime(t *testing.T) {
	cm := NUMA(NVMBacked(1, 1, 2, 8, 1), 3, 3)
	h := TwoLevel(64)
	h.Load(0, 11)
	h.StoreRemote(0, 4)
	h.Flops(9)

	cs := NewCounterSet(2)
	cs.Add(h.Counters())
	if got, want := cm.TimeOf(cs), cm.Time(h); !almostEq(got, want) {
		t.Fatalf("TimeOf %g != Time %g", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("TimeOf must panic on interface-count mismatch")
		}
	}()
	cm.TimeOf(NewCounterSet(3))
}

// Time and WriteEnergy both price the remote share of an interface's words
// at the remote βs and the rest at the local ones.
func TestWriteEnergySplitsRemoteWords(t *testing.T) {
	cm := NUMA(SymmetricDRAM(1, 0.5, 2), 2, 4)
	h := TwoLevel(64)

	h.Load(0, 10)
	h.LoadRemote(0, 5)
	h.StoreRemote(0, 7)
	h.Store(0, 3)
	h.Flops(100)

	// Four messages at α=0.5, 10+3 local words at β=2, 5 remote loads at
	// 2·2 and 7 remote stores at 2·4; flops are free.
	if got, want := cm.Time(h), 4*0.5+2.0*13+4.0*5+8.0*7; !almostEq(got, want) {
		t.Fatalf("model time %g want %g", got, want)
	}

	// WriteEnergy splits local and remote store prices the same way.
	wantEnergy := 2.0*float64(3+10) + 4.0*2.0*float64(7) + 2.0*2.0*float64(5)
	if got := cm.WriteEnergy(h); !almostEq(got, wantEnergy) {
		t.Fatalf("write energy %g want %g", got, wantEnergy)
	}
}
