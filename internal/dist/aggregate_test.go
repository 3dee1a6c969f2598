package dist

import (
	"reflect"
	"testing"

	"writeavoid/internal/machine"
)

// Aggregate sums the processors' own counters field by field, even though
// the processors record concurrently, remote words included.
func TestAggregateSumsAllProcessors(t *testing.T) {
	const P = 8
	m := mk(P)
	m.Run(func(p *Proc) {
		w := int64(10 * (p.Rank + 1))
		p.H.Load(0, w)
		p.H.Load(1, 2*w)
		p.H.Store(0, w/2)
		p.H.Init(2, w)
		p.H.Discard(0, 1)
		p.H.Flops(100)
		if p.Rank%2 == 0 {
			p.H.LoadRemote(0, 3)
			p.H.Store(0, 3)
		}
	})
	agg := m.Aggregate()

	want := machine.NewCounterSet(3)
	for r := 0; r < P; r++ {
		want.Add(m.Proc(r).H.Counters())
	}
	if !reflect.DeepEqual(agg, want) {
		t.Fatalf("aggregate %+v\nwant the summed rank counters %+v", agg, want)
	}
	if agg.Iface[0].RemoteLoadWords != 3*P/2 {
		t.Fatalf("aggregate remote load words %d, want %d", agg.Iface[0].RemoteLoadWords, 3*P/2)
	}

	// Explicit closed-form cross-check: sum over ranks of 10*(r+1) etc.
	var base int64
	for r := 1; r <= P; r++ {
		base += int64(10 * r)
	}
	if agg.Iface[0].LoadWords != base+3*P/2 || agg.Iface[1].LoadWords != 2*base || agg.FlopCount != 100*P {
		t.Fatalf("aggregate loads (%d,%d) flops %d want (%d,%d) %d",
			agg.Iface[0].LoadWords, agg.Iface[1].LoadWords, agg.FlopCount, base+3*P/2, 2*base, 100*P)
	}
}

// Aggregate and RankSnapshots read by rank 0 right after each Barrier equal
// the exact totals of the supersteps completed so far. A second barrier
// holds the other ranks until the read is done.
func TestAggregateAtBarrierSeesWholeSupersteps(t *testing.T) {
	const P, steps = 6, 5
	m := mk(P)
	levels := m.cfg.Levels
	m.Run(func(p *Proc) {
		for step := 1; step <= steps; step++ {
			p.H.Load(0, int64(p.Rank+1))
			p.H.Store(1, int64(step))
			p.H.Flops(int64(10 * (p.Rank + 1)))
			p.Barrier()
			if p.Rank != 0 {
				p.Barrier()
				continue
			}
			want := machine.NewCounterSet(3)
			for r := 0; r < P; r++ {
				c := machine.NewCounterSet(3)
				c.Iface[0].LoadWords = int64(step * (r + 1))
				c.Iface[0].LoadMsgs = int64(step)
				c.Iface[1].StoreWords = int64(step * (step + 1) / 2)
				c.Iface[1].StoreMsgs = int64(step)
				c.FlopCount = int64(step * 10 * (r + 1))
				if got, w := m.RankSnapshot(r), machine.SnapshotOf(levels, c); !reflect.DeepEqual(got, w) {
					t.Errorf("step %d rank %d snapshot %+v, want %+v", step, r, got, w)
				}
				want.Add(c)
			}
			if got := m.Aggregate(); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d aggregate %+v, want %+v", step, got, want)
			}
			p.Barrier()
		}
	})
}

// Aggregate may be read mid-run without racing the recording processors.
func TestAggregateReadableDuringRun(t *testing.T) {
	m := mk(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.Aggregate()
		}
	}()
	m.Run(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.H.Load(0, 1)
			p.H.Store(0, 1)
		}
	})
	<-done
	if got := m.Aggregate().Iface[0].LoadWords; got != 4000 {
		t.Fatalf("final aggregate loads %d want 4000", got)
	}
}
