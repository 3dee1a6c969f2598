package dist

import (
	"testing"

	"writeavoid/internal/machine"
)

func mkSockets(p, sockets int, pl machine.Placement) *Machine {
	return New(Config{
		P:         p,
		Sockets:   sockets,
		Placement: pl,
		Levels: []machine.Level{
			{Name: "L1", Size: 1 << 10},
			{Name: "L2", Size: 1 << 16},
			{Name: "L3"},
		},
	})
}

// ringWords runs a neighbor shift: every rank sends words to (rank+1)%P. On a
// 2-socket machine, block placement keeps all but the two boundary messages
// local, while round-robin makes every hop remote.
func ringWords(m *Machine, words int) {
	m.Run(func(p *Proc) {
		data := make([]float64, words)
		to, from := (p.Rank+1)%p.P(), (p.Rank-1+p.P())%p.P()
		p.Shift(to, from, data)
	})
}

func TestPlacementSplitsNetworkTraffic(t *testing.T) {
	const P, words = 8, 16
	block := mkSockets(P, 2, machine.PlaceBlock)
	rr := mkSockets(P, 2, machine.PlaceRoundRobin)
	flat := mk(P)
	ringWords(block, words)
	ringWords(rr, words)
	ringWords(flat, words)

	// Global totals are placement-invariant and equal the flat machine's.
	bn, rn, fn := block.TotalNet(), rr.TotalNet(), flat.TotalNet()
	if bn != fn || rn != fn {
		t.Fatalf("totals differ: block %d rr %d flat %d", bn, rn, fn)
	}

	var bTot, bRem, rTot, rRem NetCounters
	for _, nc := range block.SocketNets() {
		bTot.Add(nc)
	}
	for _, nc := range rr.SocketNets() {
		rTot.Add(nc)
	}
	bRem = NetCounters{RemoteWordsSent: bTot.RemoteWordsSent, RemoteWordsRecv: bTot.RemoteWordsRecv}
	rRem = NetCounters{RemoteWordsSent: rTot.RemoteWordsSent, RemoteWordsRecv: rTot.RemoteWordsRecv}

	if bTot.WordsSent != rTot.WordsSent {
		t.Fatalf("socket-summed sends differ: block %d rr %d", bTot.WordsSent, rTot.WordsSent)
	}
	// Block: only ranks 3->4 and 7->0 cross the socket boundary.
	if got, want := bRem.RemoteWordsSent, int64(2*words); got != want {
		t.Fatalf("block remote words sent %d want %d", got, want)
	}
	// Round-robin: every ring hop flips parity, so all P messages are remote.
	if got, want := rRem.RemoteWordsSent, int64(P*words); got != want {
		t.Fatalf("rr remote words sent %d want %d", got, want)
	}
	if bRem.RemoteWordsRecv != bRem.RemoteWordsSent || rRem.RemoteWordsRecv != rRem.RemoteWordsSent {
		t.Fatal("remote sends and receives must mirror on a closed ring")
	}
	// A flat machine classifies nothing as remote.
	fAgg := flat.MaxNet()
	if fAgg.RemoteWordsSent != 0 || fAgg.RemoteMsgsSent != 0 {
		t.Fatalf("flat machine recorded remote traffic: %+v", fAgg)
	}
}

func TestSocketAccessorsAndMaxNetOnSocket(t *testing.T) {
	m := mkSockets(8, 2, machine.PlaceBlock)
	if m.NumSockets() != 2 {
		t.Fatalf("NumSockets = %d", m.NumSockets())
	}
	for r := 0; r < 8; r++ {
		if want := r / 4; m.SocketOf(r) != want {
			t.Fatalf("SocketOf(%d) = %d want %d", r, m.SocketOf(r), want)
		}
	}
	// Rank 1 sends twice as much as everyone else; it dominates socket 0's
	// max but must not leak into socket 1's.
	m.Run(func(p *Proc) {
		w := 8
		if p.Rank == 1 {
			w = 16
		}
		to, from := (p.Rank+1)%p.P(), (p.Rank-1+p.P())%p.P()
		p.Shift(to, from, make([]float64, w))
	})
	if got := m.MaxNetOnSocket(0).WordsSent; got != 16 {
		t.Fatalf("socket 0 max words sent %d want 16", got)
	}
	if got := m.MaxNetOnSocket(1).WordsSent; got != 8 {
		t.Fatalf("socket 1 max words sent %d want 8", got)
	}
	if got := m.MaxNet().WordsSent; got != 16 {
		t.Fatalf("global max words sent %d want 16", got)
	}
}

// Peer-aware staging classifies hierarchy words by the peer's socket: staging
// toward a remote peer records remote loads/stores, a local peer none, and
// totals match the peer-oblivious helpers either way.
func TestPeerAwareStagingClassifiesBySocket(t *testing.T) {
	m := mkSockets(4, 2, machine.PlaceBlock) // sockets: {0,0,1,1}
	m.Run(func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		p.H.Load(1, 32)                 // words resident in L2 to stage from
		p.StageUpFromLevelFor(1, 2, 8)  // rank 1: same socket
		p.StageUpFromLevelFor(2, 2, 8)  // rank 2: remote
		p.StageDownToLevelFrom(3, 2, 8) // rank 3: remote
	})
	// Staging between the bottom level and the network-facing L2 crosses
	// interface 1 (L2<->L3); only the remote-peer transfers split out.
	ic := m.RankSnapshot(0).Interfaces[1]
	if ic.LoadWords != 48 || ic.RemoteLoadWords != 8 {
		t.Fatalf("stage-up split: %+v", ic)
	}
	if ic.StoreWords != 8 || ic.RemoteStoreWords != 8 {
		t.Fatalf("stage-down split: %+v", ic)
	}

	// RemotePeer matches the placement map, and self is never remote.
	m2 := mkSockets(4, 2, machine.PlaceRoundRobin)
	m2.Run(func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		if p.RemotePeer(0) {
			t.Error("self must not be remote")
		}
		if p.RemotePeer(2) { // same parity, same socket under rr
			t.Error("rank 2 should be local to rank 0 under rr")
		}
		if !p.RemotePeer(1) {
			t.Error("rank 1 should be remote to rank 0 under rr")
		}
	})
}

// One socket must behave exactly like the pre-socket machine: same counters,
// no remote classification anywhere, topology reported flat.
func TestSingleSocketIdentical(t *testing.T) {
	one := mkSockets(4, 1, machine.PlaceBlock)
	ref := mk(4)
	ringWords(one, 8)
	ringWords(ref, 8)
	if !one.Topology().Flat() {
		t.Fatal("1-socket machine must be flat")
	}
	a, b := one.Aggregate(), ref.Aggregate()
	sa := machine.SnapshotOf(one.cfg.Levels, a)
	sb := machine.SnapshotOf(ref.cfg.Levels, b)
	if got, want := sa, sb; !snapshotEq(got, want) {
		t.Fatalf("1-socket aggregate differs from flat machine:\none  = %+v\nflat = %+v", got, want)
	}
	if one.MaxNet() != ref.MaxNet() {
		t.Fatalf("net counters differ: %+v vs %+v", one.MaxNet(), ref.MaxNet())
	}
}

func snapshotEq(a, b machine.Snapshot) bool {
	if len(a.Interfaces) != len(b.Interfaces) {
		return false
	}
	for i := range a.Interfaces {
		if a.Interfaces[i] != b.Interfaces[i] {
			return false
		}
	}
	return a.Flops == b.Flops
}
