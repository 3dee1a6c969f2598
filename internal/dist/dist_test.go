package dist

import (
	"sync/atomic"
	"testing"

	"writeavoid/internal/machine"
)

func mk(p int) *Machine {
	return New(Config{
		P: p,
		Levels: []machine.Level{
			{Name: "L1", Size: 1 << 10},
			{Name: "L2", Size: 1 << 16},
			{Name: "L3"},
		},
	})
}

func TestSendRecvRoundTrip(t *testing.T) {
	m := mk(2)
	m.Run(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, []float64{1, 2, 3})
		} else {
			got := p.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("bad payload %v", got)
			}
		}
	})
	if m.Proc(0).Net.WordsSent != 3 || m.Proc(1).Net.WordsRecv != 3 {
		t.Fatal("word counters")
	}
	if m.Proc(0).Net.MsgsSent != 1 || m.Proc(1).Net.MsgsRecv != 1 {
		t.Fatal("msg counters")
	}
}

// Send hands its slice over: the receiver gets the sender's slice itself,
// not a copy.
func TestSendHandsOverPayload(t *testing.T) {
	m := mk(2)
	buf := []float64{42}
	var got []float64
	m.Run(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, buf)
		} else {
			got = p.Recv(0)
		}
	})
	if len(got) != 1 || &got[0] != &buf[0] {
		t.Fatalf("received %v at %p, want the sent slice at %p", got, got, buf)
	}
}

func TestMessageSplitting(t *testing.T) {
	m := New(Config{P: 2, MaxMsgWords: 10, Levels: []machine.Level{{Name: "a", Size: 10}, {Name: "b"}}})
	m.Run(func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, make([]float64, 25))
		} else {
			p.Recv(0)
		}
	})
	if got := m.Proc(0).Net.MsgsSent; got != 3 {
		t.Fatalf("25 words with 10-word cap should be 3 msgs, got %d", got)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := mk(8)
	var before, after atomic.Int64
	m.Run(func(p *Proc) {
		before.Add(1)
		p.Barrier()
		if before.Load() != 8 {
			t.Error("barrier released before everyone arrived")
		}
		after.Add(1)
		p.Barrier()
		if after.Load() != 8 {
			t.Error("second barrier released early")
		}
	})
}

func TestBcastAllGroupSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		m := mk(p)
		group := make([]int, p)
		for i := range group {
			group[i] = i
		}
		for root := 0; root < p; root += max(1, p/3) {
			root := root
			m.Run(func(pr *Proc) {
				var data []float64
				if pr.Rank == root {
					data = []float64{float64(root), 7}
				}
				got := pr.Bcast(group, root, data)
				if len(got) != 2 || got[0] != float64(root) || got[1] != 7 {
					t.Errorf("P=%d root=%d rank=%d got %v", p, root, pr.Rank, got)
				}
			})
		}
	}
}

func TestBcastSubgroup(t *testing.T) {
	m := mk(6)
	group := []int{1, 3, 5}
	m.Run(func(p *Proc) {
		if p.Rank%2 == 0 {
			return // not in group
		}
		var data []float64
		if p.Rank == 3 {
			data = []float64{9}
		}
		if got := p.Bcast(group, 3, data); got[0] != 9 {
			t.Errorf("rank %d got %v", p.Rank, got)
		}
	})
}

func TestBcastCriticalPathLogarithmic(t *testing.T) {
	p := 16
	m := mk(p)
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	m.Run(func(pr *Proc) {
		var data []float64
		if pr.Rank == 0 {
			data = make([]float64, 100)
		}
		pr.Bcast(group, 0, data)
	})
	// Binomial tree: the root sends log2(P)=4 messages, no one sends more.
	if got := m.Proc(0).Net.MsgsSent; got != 4 {
		t.Fatalf("root sent %d msgs, want 4", got)
	}
	if got := m.MaxNet().MsgsSent; got > 4 {
		t.Fatalf("critical path %d msgs, want <=4", got)
	}
	// Total transfer is P-1 copies of the payload.
	if got := m.TotalNet(); got != int64((p-1)*100) {
		t.Fatalf("total words %d want %d", got, (p-1)*100)
	}
}

func TestReduceSums(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		m := mk(p)
		group := make([]int, p)
		for i := range group {
			group[i] = i
		}
		m.Run(func(pr *Proc) {
			data := []float64{1, float64(pr.Rank)}
			got := pr.Reduce(group, 0, data)
			if pr.Rank == 0 {
				wantSum := float64(p * (p - 1) / 2)
				if got[0] != float64(p) || got[1] != wantSum {
					t.Errorf("P=%d reduce got %v", p, got)
				}
			} else if got != nil {
				t.Errorf("non-root got non-nil %v", got)
			}
		})
	}
}

func TestShiftRing(t *testing.T) {
	p := 5
	m := mk(p)
	m.Run(func(pr *Proc) {
		data := []float64{float64(pr.Rank)}
		// Shift left around the ring 5 times: data returns home.
		for i := 0; i < p; i++ {
			to := (pr.Rank + p - 1) % p
			from := (pr.Rank + 1) % p
			data = pr.Shift(to, from, data)
		}
		if data[0] != float64(pr.Rank) {
			t.Errorf("rank %d ended with %v", pr.Rank, data)
		}
	})
}

func TestSelfShiftFree(t *testing.T) {
	m := mk(1)
	m.Run(func(p *Proc) {
		d := p.Shift(0, 0, []float64{5})
		if d[0] != 5 {
			t.Error("self shift must return data")
		}
	})
	if m.Proc(0).Net.WordsSent != 0 {
		t.Fatal("self shift must be free")
	}
}

func TestStageHelpers(t *testing.T) {
	m := mk(2)
	m.Run(func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		// Sending from L3 (level 2) stages up through interface 1.
		p.StageUpFromLevel(2, 100)
		// Receiving into L3 stages down through interface 1.
		p.StageDownToLevel(2, 100)
	})
	h := m.Proc(0).H
	c := h.Interface(1)
	if c.LoadWords != 100 || c.StoreWords != 100 {
		t.Fatalf("staging traffic (%d,%d) want (100,100)", c.LoadWords, c.StoreWords)
	}
	if h.Traffic(0) != 0 {
		t.Fatal("staging must not touch the L1 interface")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected propagated panic")
		}
	}()
	m := mk(4)
	m.Run(func(p *Proc) {
		if p.Rank == 2 {
			panic("boom")
		}
		p.Barrier() // would deadlock without poisoning
	})
}

func TestMaxCounters(t *testing.T) {
	m := mk(3)
	m.Run(func(p *Proc) {
		switch p.Rank {
		case 0:
			p.Send(1, make([]float64, 7))
			p.H.Init(2, 50)
		case 1:
			p.Recv(0)
		}
	})
	if m.MaxNet().WordsSent != 7 || m.MaxNet().WordsRecv != 7 {
		t.Fatal("MaxNet")
	}
	if m.MaxWritesTo(2) != 50 {
		t.Fatal("MaxWritesTo")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{P: 0, Levels: []machine.Level{{}, {}}},
		{P: 2, Levels: []machine.Level{{}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
