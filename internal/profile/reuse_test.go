package profile_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// bruteStack is the textbook O(n^2) LRU stack-distance simulator the Fenwick
// implementation is checked against: the distance of an access is its
// position in the move-to-front list, -1 when cold.
type bruteStack struct {
	stack []uint64
}

func (s *bruteStack) touch(addr uint64) int64 {
	for i, a := range s.stack {
		if a == addr {
			copy(s.stack[1:i+1], s.stack[:i])
			s.stack[0] = addr
			return int64(i)
		}
	}
	s.stack = append([]uint64{addr}, s.stack...)
	return -1
}

// randomTrace builds a reproducible skewed trace over `addrs` distinct
// 8-byte-element addresses.
func randomTrace(seed int64, n, addrs int) []access.Op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]access.Op, 0, n)
	for i := 0; i < n; i++ {
		// Mix uniform and local reuse so the distance spectrum has mass at
		// both ends.
		var a int
		if r.Intn(2) == 0 && i > 0 {
			a = int(ops[i-1-r.Intn(min(i, 8))].Addr / 8)
		} else {
			a = r.Intn(addrs)
		}
		ops = append(ops, access.Op{Addr: uint64(a) * 8, Write: r.Intn(3) == 0})
	}
	return ops
}

func TestReuseDistanceMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ops := randomTrace(seed, 3000, 128)
		rec := profile.NewReuseRecorder()
		var brute bruteStack
		wantReads := map[int64]int64{}
		wantWrites := map[int64]int64{}
		var coldR, coldW int64
		for _, op := range ops {
			// Drive through the Recorder interface, as an attached hierarchy
			// would.
			rec.Record([]machine.Event{{Kind: machine.EvTouch, Addr: op.Addr, Write: op.Write}})
			d := brute.touch(op.Addr)
			switch {
			case d < 0 && op.Write:
				coldW++
			case d < 0:
				coldR++
			case op.Write:
				wantWrites[d]++
			default:
				wantReads[d]++
			}
		}
		if rec.Touches() != int64(len(ops)) {
			t.Fatalf("seed %d: recorded %d touches, want %d", seed, rec.Touches(), len(ops))
		}
		if rec.ColdReads != coldR || rec.ColdWrites != coldW {
			t.Errorf("seed %d: cold %d/%d, brute force %d/%d",
				seed, rec.ColdReads, rec.ColdWrites, coldR, coldW)
		}
		compareHist(t, "reads", rec.ReadDist(), wantReads)
		compareHist(t, "writes", rec.WriteDist(), wantWrites)
	}
}

func compareHist(t *testing.T, what string, got, want map[int64]int64) {
	t.Helper()
	for d, c := range want {
		if got[d] != c {
			t.Errorf("%s: distance %d count %d, brute force %d", what, d, got[d], c)
		}
	}
	for d, c := range got {
		if want[d] != c {
			t.Errorf("%s: distance %d count %d, brute force %d", what, d, c, want[d])
		}
	}
}

// The stack property: a fully-associative LRU memory of C lines misses
// exactly the accesses at distance >= C, and writes back exactly the dirty
// generations WriteBackFloor replays — pinned against the real FALRU
// simulator, flush included.
func TestReuseMissesAndWriteBacksMatchFALRU(t *testing.T) {
	ops := randomTrace(11, 4000, 200)
	rec := profile.NewReuseRecorder()
	for _, op := range ops {
		rec.Touch(op.Addr, op.Write)
	}
	for _, capacity := range []int{4, 16, 64, 128, 256} {
		fa := cache.NewFALRU(capacity*8, 8)
		for _, op := range ops {
			fa.Access(op.Addr, op.Write)
		}
		fa.FlushDirty()
		st := fa.Stats()
		if got := rec.Misses(int64(capacity)); got != st.Misses {
			t.Errorf("capacity %d: histogram misses %d, FALRU %d", capacity, got, st.Misses)
		}
		if got := rec.WriteBackFloor(int64(capacity)); got != st.VictimsM {
			t.Errorf("capacity %d: write-back floor %d, FALRU victims.M %d", capacity, got, st.VictimsM)
		}
	}
}

// Proposition 6.1 regression on a real traced run: the write-avoiding matmul
// order on an LRU cache of the planned working-set size performs at least
// n^2 write-backs (the output must reach slow memory) and the recorder's
// replayed floor equals the simulator, while the k-outermost order pays
// strictly more.
func TestProp61WriteBackFloorOnMatMulTrace(t *testing.T) {
	const n, b = 16, 4
	capacity := int64(3 * b * b) // the plan's working set, in 8-byte lines
	floor := func(wa bool) (int64, int64) {
		tr := core.NewMatMulTrace(n, n, n, 8, core.TraceLevel{Block: b, ContractionInner: wa})
		rec := profile.NewReuseRecorder()
		fa := cache.NewFALRU(int(capacity)*8, 8)
		tr.Run(access.SinkFunc(func(addr uint64, write bool) {
			rec.Touch(addr, write)
			fa.Access(addr, write)
		}))
		fa.FlushDirty()
		got := rec.WriteBackFloor(capacity)
		if sim := fa.Stats().VictimsM; got != sim {
			t.Errorf("wa=%v: replayed floor %d != FALRU victims.M %d", wa, got, sim)
		}
		return got, rec.Touches()
	}
	waWB, touches := floor(true)
	nonWB, _ := floor(false)
	if touches == 0 {
		t.Fatal("trace emitted no touches")
	}
	if waWB < n*n {
		t.Errorf("WA write-backs %d below the Proposition 6.1 floor %d", waWB, n*n)
	}
	if waWB >= nonWB {
		t.Errorf("WA order write-backs %d not below k-outermost %d", waWB, nonWB)
	}
}

func TestReuseRenderHist(t *testing.T) {
	rec := profile.NewReuseRecorder()
	for _, op := range randomTrace(5, 500, 32) {
		rec.Touch(op.Addr, op.Write)
	}
	var buf bytes.Buffer
	rec.RenderHist(&buf)
	out := buf.String()
	for _, want := range []string{"distance", "reads", "writes", "cold"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}
