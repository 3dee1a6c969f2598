package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"writeavoid/internal/machine"
)

// This file pins the collectives against a frozen reference of the binomial
// tree they use: Bcast sends parent to child, Reduce child to parent, and
// the relative rank rel (the member's index in the group, counted from the
// root's) has parent rel with its highest set bit cleared and children
// rel+2^k for every 2^k > rel (rel 0: every 2^k) below the group size, in
// increasing k. A Reduce node sums, onto its own data, each child's subtree
// sum in that order.

// refChildren lists rel's children in a tree of n members.
func refChildren(rel, n int) []int {
	var out []int
	for k := 0; 1<<k < n; k++ {
		if c := rel + 1<<k; 1<<k > rel && c < n {
			out = append(out, c)
		}
	}
	return out
}

// refReduce is the subtree sum at rel: its own data plus each child's
// subtree sum, children in order, element by element.
func refReduce(rel, n int, data func(rel int) []float64) []float64 {
	acc := append([]float64{}, data(rel)...)
	for _, c := range refChildren(rel, n) {
		sub := refReduce(c, n, data)
		for i := range acc {
			acc[i] += sub[i]
		}
	}
	return acc
}

// collOp is one step of a collectives scenario.
type collOp struct {
	kind    string // "bcast", "reduce", "shift" or "p2p"
	group   []int  // members in tree order (bcast, reduce, shift)
	root    int    // bcast and reduce root
	shift   int    // shift distance within the group
	from    []int  // p2p messages, in program order
	to      []int
	payload map[int][]float64 // by sending rank (p2p: by message index)
}

// refCharge adds one transfer of w words from rank a to rank b to the
// reference counters, as the model prices it.
func refCharge(nets []NetCounters, m *Machine, maxMsg int64, a, b int, w int) {
	words := int64(w)
	msgs := int64(1)
	if maxMsg > 0 && words > maxMsg {
		msgs = (words + maxMsg - 1) / maxMsg
	}
	nets[a].WordsSent += words
	nets[a].MsgsSent += msgs
	nets[b].WordsRecv += words
	nets[b].MsgsRecv += msgs
	if m.SocketOf(a) != m.SocketOf(b) {
		nets[a].RemoteWordsSent += words
		nets[a].RemoteMsgsSent += msgs
		nets[b].RemoteWordsRecv += words
		nets[b].RemoteMsgsRecv += msgs
	}
}

func randPayload(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Mixed magnitudes, so that a change in summation order changes
		// the bits of a Reduce.
		out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(13)-6))
	}
	return out
}

func inGroup(group []int, r int) bool {
	for _, g := range group {
		if g == r {
			return true
		}
	}
	return false
}

// Bcast, Reduce, Shift and Send/Recv, over P from 1 to 17 on one and two
// sockets, random groups and roots, and payloads from empty to past
// MaxMsgWords: every rank's result is bit-identical to the frozen reference
// (Reduce's summation order included), every rank's NetCounters and flops
// equal the reference's, received slices are the sent ones themselves, and
// no payload changes after it is sent.
func TestCollectivesMatchReference(t *testing.T) {
	for P := 1; P <= 17; P++ {
		for _, sockets := range []int{1, 2} {
			for seed := uint64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("P%d/s%d/%d", P, sockets, seed), func(t *testing.T) {
					checkCollectives(t, P, sockets, seed)
				})
			}
		}
	}
}

func checkCollectives(t *testing.T, P, sockets int, seed uint64) {
	rng := rand.New(rand.NewPCG(uint64(P*100+sockets), seed))
	maxMsg := []int64{0, 4, 7}[rng.IntN(3)]
	length := func() int { return rng.IntN(16) } // 0 up to past 2*MaxMsgWords
	m := New(Config{
		P: P, Sockets: sockets, MaxMsgWords: maxMsg,
		Levels: []machine.Level{{Name: "L1", Size: 1 << 10}, {Name: "L2"}},
	})
	randGroup := func() []int { return rng.Perm(P)[:1+rng.IntN(P)] }

	var ops []collOp
	for _, kind := range rng.Perm(4) {
		op := collOp{payload: map[int][]float64{}}
		switch kind {
		case 0:
			op.kind, op.group = "bcast", randGroup()
			op.root = op.group[rng.IntN(len(op.group))]
			op.payload[op.root] = randPayload(rng, length())
		case 1:
			op.kind, op.group = "reduce", randGroup()
			op.root = op.group[rng.IntN(len(op.group))]
			w := length()
			for _, r := range op.group {
				op.payload[r] = randPayload(rng, w)
			}
		case 2:
			op.kind, op.group = "shift", randGroup()
			op.shift = rng.IntN(len(op.group))
			for _, r := range op.group {
				op.payload[r] = randPayload(rng, length())
			}
		case 3:
			op.kind = "p2p"
			if P == 1 {
				continue
			}
			for i := rng.IntN(7); i > 0; i-- {
				a := rng.IntN(P)
				b := (a + 1 + rng.IntN(P-1)) % P
				op.from, op.to = append(op.from, a), append(op.to, b)
				op.payload[len(op.from)-1] = randPayload(rng, length())
			}
		}
		ops = append(ops, op)
	}
	// Frozen copies of every payload, to show that none changes.
	frozen := make([]map[int][]float64, len(ops))
	for i, op := range ops {
		frozen[i] = map[int][]float64{}
		for k, v := range op.payload {
			frozen[i][k] = append([]float64{}, v...)
		}
	}

	got := make([][][]float64, len(ops)) // got[op][rank]
	for i := range got {
		got[i] = make([][]float64, P)
	}
	m.Run(func(p *Proc) {
		for i, op := range ops {
			switch op.kind {
			case "bcast":
				if inGroup(op.group, p.Rank) {
					got[i][p.Rank] = p.Bcast(op.group, op.root, op.payload[p.Rank])
				}
			case "reduce":
				if inGroup(op.group, p.Rank) {
					got[i][p.Rank] = p.Reduce(op.group, op.root, op.payload[p.Rank])
				}
			case "shift":
				if inGroup(op.group, p.Rank) {
					n, me := len(op.group), indexOf(op.group, p.Rank)
					to, from := op.group[(me+op.shift)%n], op.group[(me-op.shift+n)%n]
					got[i][p.Rank] = p.Shift(to, from, op.payload[p.Rank])
				}
			case "p2p":
				for k := range op.from {
					switch p.Rank {
					case op.from[k]:
						p.Send(op.to[k], op.payload[k])
					case op.to[k]:
						got[i][p.Rank] = append(got[i][p.Rank], p.Recv(op.from[k])...)
					}
				}
			}
		}
	})

	nets := make([]NetCounters, P)
	flops := make([]int64, P)
	same := func(what string, key int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s %d: %d words, want %d", what, key, len(got), len(want))
			return
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s %d word %d: %v, want %v", what, key, i, got[i], want[i])
				return
			}
		}
	}
	alias := func(what string, rank int, got, sent []float64) {
		t.Helper()
		if len(sent) > 0 && (len(got) == 0 || &got[0] != &sent[0]) {
			t.Errorf("%s rank %d received a copy, not the sent slice", what, rank)
		}
	}
	for i, op := range ops {
		n := len(op.group)
		member := func(rel int) int { // rel is counted from the root
			return op.group[(rel+indexOf(op.group, op.root))%n]
		}
		switch op.kind {
		case "bcast":
			want := frozen[i][op.root]
			for rel := 0; rel < n; rel++ {
				r := member(rel)
				same("bcast rank", r, got[i][r], want)
				alias("bcast", r, got[i][r], op.payload[op.root])
				for _, c := range refChildren(rel, n) {
					refCharge(nets, m, maxMsg, r, member(c), len(want))
				}
			}
		case "reduce":
			want := refReduce(0, n, func(rel int) []float64 { return frozen[i][member(rel)] })
			for rel := 0; rel < n; rel++ {
				r := member(rel)
				if rel == 0 {
					same("reduce root", r, got[i][r], want)
				} else if got[i][r] != nil {
					t.Errorf("reduce rank %d (not the root) got %v", r, got[i][r])
				}
				for _, c := range refChildren(rel, n) {
					refCharge(nets, m, maxMsg, member(c), r, len(want))
					flops[r] += int64(len(want))
				}
			}
		case "shift":
			for me, r := range op.group {
				to, from := op.group[(me+op.shift)%n], op.group[(me-op.shift+n)%n]
				if to == r && from == r {
					same("self-shift rank", r, got[i][r], frozen[i][r])
					continue
				}
				same("shift rank", r, got[i][r], frozen[i][from])
				alias("shift", r, got[i][r], op.payload[from])
				refCharge(nets, m, maxMsg, r, to, len(frozen[i][r]))
			}
		case "p2p":
			want := make([][]float64, P)
			for k := range op.from {
				want[op.to[k]] = append(want[op.to[k]], frozen[i][k]...)
				refCharge(nets, m, maxMsg, op.from[k], op.to[k], len(frozen[i][k]))
			}
			for r := range want {
				same("p2p rank", r, got[i][r], want[r])
			}
		}
		for k, v := range op.payload { // k: the sending rank, or p2p's message index
			same(op.kind+" payload after the run, key", k, v, frozen[i][k])
		}
	}
	for r := 0; r < P; r++ {
		if got := m.Proc(r).Net; got != nets[r] {
			t.Errorf("rank %d net counters %+v, want %+v", r, got, nets[r])
		}
		if got := m.Proc(r).H.FlopCount(); got != flops[r] {
			t.Errorf("rank %d flops %d, want %d", r, got, flops[r])
		}
	}
}
