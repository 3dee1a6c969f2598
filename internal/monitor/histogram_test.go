package monitor

import (
	"math"
	"sync"
	"testing"
	"time"

	"writeavoid/internal/machine"
)

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(2, 3, 4)
	want := []float64{2, 6, 18, 54}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad ladder did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"infinite":   {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// Observations land in the first bucket whose bound >= v (le is inclusive),
// NaN is dropped, and the snapshot carries exact sum/count.
func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []int64{2, 2, 2, 1} // le=1: {0.5,1}; le=10: {1.5,10}; le=100: {99,100}; +Inf: {101}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7 (NaN must be dropped)", s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 10 + 99 + 100 + 101; s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	if h.Sum() != s.Sum || h.Count() != s.Count {
		t.Fatal("Sum()/Count() disagree with Snapshot")
	}
}

// fakeClock steps a deterministic wall clock for duration pins.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// driveRecorder runs two phases through a hierarchy observed by the
// recorder, with distinct load/store traffic per phase.
func driveRecorder(t *testing.T, rec *HistogramRecorder, clock *fakeClock) *machine.Hierarchy {
	t.Helper()
	h := machine.New(false, machine.Level{Name: "fast", Size: 64}, machine.Level{Name: "slow"})
	h.Attach(rec.Ledger())
	rec.Phase("alpha")
	h.Load(0, 100)
	h.Store(0, 40)
	clock.Advance(time.Second)
	rec.Phase("beta")
	h.Load(0, 300)
	h.Store(0, 7)
	clock.Advance(2 * time.Second)
	h.Detach(rec.Ledger())
	rec.Finish()
	return h
}

// The exactness pin: each phase contributes one observation, and because
// phase deltas telescope, the load/store histogram sums equal the cumulative
// interface counters — and the duration sum equals total wall time.
func TestHistogramRecorderExactPhaseSums(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.SetClock(clock.Now)
	driveRecorder(t, rec, clock)

	hists := map[string]HistogramSnapshot{}
	for _, fh := range rec.Histograms() {
		hists[fh.Family] = fh.Snap
	}
	cum := rec.Snapshot()
	var loadW, storeW int64
	for _, ifc := range cum.Interfaces {
		loadW += ifc.LoadWords
		storeW += ifc.StoreWords
	}
	if loadW != 400 || storeW != 47 {
		t.Fatalf("cumulative loads/stores = %d/%d, want 400/47", loadW, storeW)
	}
	if got := hists["wa_phase_load_words"]; got.Sum != float64(loadW) || got.Count != 2 {
		t.Fatalf("load histogram sum/count = %g/%d, want %d/2", got.Sum, got.Count, loadW)
	}
	if got := hists["wa_phase_store_words"]; got.Sum != float64(storeW) || got.Count != 2 {
		t.Fatalf("store histogram sum/count = %g/%d, want %d/2", got.Sum, got.Count, storeW)
	}
	if got := hists["wa_phase_duration_seconds"]; got.Sum != 3 || got.Count != 2 {
		t.Fatalf("duration histogram sum/count = %g/%d, want 3/2", got.Sum, got.Count)
	}
	// Finish is idempotent: a second call adds nothing.
	rec.Finish()
	if got := rec.Histograms()[0].Snap.Count; got != 2 {
		t.Fatalf("after double Finish, duration count = %d, want 2", got)
	}
}

// Batched and per-event delivery produce identical distributions.
func TestHistogramRecorderBatchEquivalence(t *testing.T) {
	run := func(capacity int) []FamilyHistogram {
		clock := &fakeClock{now: time.Unix(0, 0)}
		rec := NewHistogramRecorder(machine.GenericLevels(2))
		rec.SetClock(clock.Now)
		h := machine.New(false, machine.Level{Name: "fast", Size: 64}, machine.Level{Name: "slow"})
		h.SetBatchCapacity(capacity)
		h.Attach(rec.Ledger())
		rec.Phase("p1")
		for i := 0; i < 100; i++ {
			h.Load(0, int64(1+i%7))
			h.Store(0, int64(1+i%3))
		}
		clock.Advance(time.Second)
		rec.Phase("p2")
		h.Load(0, 999)
		clock.Advance(time.Second)
		h.Detach(rec.Ledger())
		rec.Finish()
		return rec.Histograms()
	}
	a, b := run(1), run(64)
	for i := range a {
		as, bs := a[i].Snap, b[i].Snap
		if as.Sum != bs.Sum || as.Count != bs.Count {
			t.Fatalf("family %s: per-event sum/count %g/%d != batched %g/%d",
				a[i].Family, as.Sum, as.Count, bs.Sum, bs.Count)
		}
		for j := range as.Counts {
			if as.Counts[j] != bs.Counts[j] {
				t.Fatalf("family %s bucket %d: %d != %d", a[i].Family, j, as.Counts[j], bs.Counts[j])
			}
		}
	}
}

// Phase marks between events must see the exact per-phase delta even when
// the hierarchy still holds buffered events (the Sources sync contract).
func TestHistogramRecorderSyncsBufferedEvents(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.SetClock(clock.Now)
	h := machine.New(false, machine.Level{Name: "fast", Size: 64}, machine.Level{Name: "slow"})
	h.SetBatchCapacity(1024) // far larger than the event count: everything buffers
	h.Attach(rec.Ledger())
	rec.Phase("only")
	h.Load(0, 123)
	clock.Advance(time.Second)
	rec.Phase("next") // closes "only"; must observe the buffered load
	h.Detach(rec.Ledger())
	rec.Finish()
	for _, fh := range rec.Histograms() {
		if fh.Family == "wa_phase_load_words" {
			if fh.Snap.Sum != 123 || fh.Snap.Count != 1 {
				t.Fatalf("buffered load not synced into phase: sum/count = %g/%d", fh.Snap.Sum, fh.Snap.Count)
			}
			return
		}
	}
	t.Fatal("load histogram missing")
}

// Event-free phases contribute no observations (durations of empty marks
// would swamp the distribution).
func TestHistogramRecorderSkipsEmptyPhases(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.SetClock(clock.Now)
	rec.Phase("empty1")
	clock.Advance(time.Hour)
	rec.Phase("empty2")
	rec.Finish()
	for _, fh := range rec.Histograms() {
		if fh.Snap.Count != 0 {
			t.Fatalf("family %s counted %d observations from empty phases", fh.Family, fh.Snap.Count)
		}
	}
}

// SetFloor drives the floor-slack distribution from phase deltas: a phase
// whose slow writes are exactly the floor observes ratio 1.
func TestHistogramRecorderFloorSlack(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.SetClock(clock.Now)
	rec.SetFloor("kern", 40)
	rec.SetFloor("ignored", 0) // no-op
	h := machine.New(false, machine.Level{Name: "fast", Size: 64}, machine.Level{Name: "slow"})
	h.Attach(rec.Ledger())
	rec.Phase("kern")
	h.Load(0, 10)
	h.Store(0, 80) // 2x the floor
	h.Detach(rec.Ledger())
	rec.Finish()
	var slack HistogramSnapshot
	for _, fh := range rec.Histograms() {
		if fh.Family == "wa_phase_floor_slack_ratio" {
			slack = fh.Snap
		}
	}
	if slack.Count != 1 || slack.Sum != 2 {
		t.Fatalf("floor slack sum/count = %g/%d, want 2/1", slack.Sum, slack.Count)
	}
	// The external path: conform-style checks feed the same histogram.
	rec.ObserveFloorSlack("other", 30, 20)
	rec.ObserveFloorSlack("zero-floor", 30, 0) // ignored
	for _, fh := range rec.Histograms() {
		if fh.Family == "wa_phase_floor_slack_ratio" {
			if fh.Snap.Count != 2 || fh.Snap.Sum != 3.5 {
				t.Fatalf("after external observation: sum/count = %g/%d, want 3.5/2", fh.Snap.Sum, fh.Snap.Count)
			}
		}
	}
}

// Remote write share observes only on phases with remote stores.
func TestHistogramRecorderRemoteShare(t *testing.T) {
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.Phase("numa")
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: 100}})
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: 25, Remote: true}})
	rec.Finish()
	for _, fh := range rec.Histograms() {
		if fh.Family == "wa_phase_remote_write_share" {
			if fh.Snap.Count != 1 || fh.Snap.Sum != 0.2 {
				t.Fatalf("remote share sum/count = %g/%d, want 0.2/1", fh.Snap.Sum, fh.Snap.Count)
			}
			return
		}
	}
	t.Fatal("remote share histogram missing")
}

// Histograms() and Snapshot() are safe to call while the run goroutine
// records — the -race pin for the /metrics path.
func TestHistogramRecorderConcurrentReads(t *testing.T) {
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = rec.Histograms()
				_ = rec.Snapshot()
			}
		}
	}()
	h := machine.New(false, machine.Level{Name: "fast", Size: 64}, machine.Level{Name: "slow"})
	h.Attach(rec.Ledger())
	for p := 0; p < 50; p++ {
		rec.Phase("p")
		for i := 0; i < 100; i++ {
			h.Load(0, 8)
			h.Store(0, 4)
		}
	}
	h.Detach(rec.Ledger())
	rec.Finish()
	close(done)
	wg.Wait()
	var total int64
	for _, ifc := range rec.Snapshot().Interfaces {
		total += ifc.LoadWords
	}
	if total != 50*100*8 {
		t.Fatalf("loads = %d, want %d", total, 50*100*8)
	}
}
