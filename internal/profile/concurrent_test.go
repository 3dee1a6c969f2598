package profile_test

import (
	"bytes"
	"fmt"
	"testing"

	"writeavoid/internal/dist"
	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// A distributed run with per-rank span recorders, superstep spans, and a live
// AggregateStream flushing from rank 0 between barriers: every layer observes
// the same run concurrently and every exactness invariant still holds. Run
// with -race.
func TestDistSpansWithAggregateStream(t *testing.T) {
	const P, steps = 4, 3
	prof := profile.NewProfiler(nil)
	g := prof.Group("supersteps")
	m := dist.New(dist.Config{
		P: P,
		Levels: []machine.Level{
			{Name: "L1", Size: 1 << 10},
			{Name: "L2", Size: 1 << 16},
			{Name: "L3"},
		},
		Observe: g.Recorder,
	})
	var buf bytes.Buffer
	s := m.NewAggregateStream(&buf)
	m.Run(func(p *dist.Proc) {
		for step := 0; step < steps; step++ {
			p.H.Begin(fmt.Sprintf("superstep %d", step))
			p.H.Load(0, int64(10*(p.Rank+1)))
			p.H.Flops(100)
			p.H.Store(0, int64(10*(p.Rank+1)))
			p.H.End()
			p.Barrier()
			if p.Rank == 0 {
				if err := s.Flush(fmt.Sprintf("step %d", step)); err != nil {
					t.Error(err)
				}
			}
		}
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("aggregate stream wrote nothing")
	}

	for _, rank := range g.Ranks() {
		rec := g.Proc(rank)
		rec.Finish()
		checkSpanExactness(t, rec)
		roots := rec.Roots()
		if len(roots) != steps {
			t.Fatalf("rank %d: %d roots, want %d", rank, len(roots), steps)
		}
		for i, root := range roots {
			if want := fmt.Sprintf("superstep %d", i); root.Name != want {
				t.Errorf("rank %d root %d named %q, want %q", rank, i, root.Name, want)
			}
			if got := root.Delta.Interfaces[0].LoadWords; got != int64(10*(rank+1)) {
				t.Errorf("rank %d step %d loads %d, want %d", rank, i, got, 10*(rank+1))
			}
			if root.Delta.Flops != 100 {
				t.Errorf("rank %d step %d flops %d, want 100", rank, i, root.Delta.Flops)
			}
		}
		// Everything happened inside a superstep span.
		assertZeroSnap(t, fmt.Sprintf("rank %d unattributed", rank), rec.Unattributed())
	}
}
