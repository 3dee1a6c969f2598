package monitor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"writeavoid/internal/machine"
)

// This file is the distribution layer of the observability server: where the
// counter families report totals, histograms report how those totals were
// distributed — across phases, across broadcast queues, across GC pauses.
// Every histogram uses a fixed bucket ladder chosen at construction (the
// exposition never invents buckets mid-run, so scrape-to-scrape series are
// stable), and the exposition writer renders the standard Prometheus triplet:
// cumulative `_bucket{le=...}` series ending in `+Inf`, plus `_sum` and
// `_count`. ValidateExposition (prometheus.go) enforces exactly those
// invariants back, so the endpoint cannot drift from what a scraper and
// `histogram_quantile` expect.

// ExpBuckets returns n exponential upper bounds start, start*factor,
// start*factor^2, ... — the fixed ladders every wa_* histogram uses. It
// panics on a non-positive start, a factor <= 1, or n < 1: a malformed
// ladder is a configuration bug, not a runtime condition.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("monitor: bad bucket ladder (start %g, factor %g, n %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// The standard ladders. Word-count phases span from tiny quick-mode kernels
// (hundreds of words) to full-size cache sweeps (billions), so the words
// ladder covers 64..~1.7e9 at factor 4; durations cover 10µs..~160s; slack
// ratios are centered on 1 (a phase exactly at its floor) with room below
// (a violation) and far above (a write-heavy classical schedule).
var (
	// WordBuckets prices per-phase word-traffic observations.
	WordBuckets = ExpBuckets(64, 4, 13)
	// SecondsBuckets prices per-phase wall durations.
	SecondsBuckets = ExpBuckets(1e-5, 4, 12)
	// RatioBuckets prices floor-slack ratios (observed/floor).
	RatioBuckets = ExpBuckets(0.25, 2, 11)
	// ShareBuckets prices fractions in [0,1] (remote write share).
	ShareBuckets = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	// DepthBuckets prices SSE queue depths (the per-client queue holds
	// clientQueue=256 messages, so the ladder tops out right at capacity).
	DepthBuckets = ExpBuckets(1, 2, 9)
)

// Histogram is one fixed-ladder distribution: counts per bucket, a running
// sum, and a total count. It is internally locked — producers (the run
// goroutine, SSE broadcasts) observe while /metrics renders concurrently —
// and observations are O(log buckets).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []int64   // per-bucket (non-cumulative); len(bounds)+1, last = +Inf
	sum    float64
	count  int64
}

// NewHistogram builds a histogram over the given upper bounds, which must be
// finite, positive in count, and strictly ascending (the +Inf bucket is
// implicit, never listed).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("monitor: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("monitor: histogram bounds must be finite")
		}
		if i > 0 && bounds[i-1] >= b {
			panic("monitor: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// Observe adds one value to the distribution. NaN observations are dropped —
// they would poison sum without landing in any bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bound >= v: Prometheus le is inclusive.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram, in the
// non-cumulative form the rest of the package computes with; the exposition
// writer accumulates it into the cumulative `_bucket` series on the wire.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"` // ascending, finite; +Inf implicit
	Counts []int64   `json:"counts"` // per-bucket; len(Bounds)+1, last = +Inf
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Sum and Count read the scalar accumulators (the exactness pins compare Sum
// against exact Snapshot deltas, so it is part of the public contract).
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// FamilyHistogram pairs one exported histogram family with its snapshot —
// the unit handleMetrics renders.
type FamilyHistogram struct {
	Family string
	Snap   HistogramSnapshot
}

// HistogramRecorder turns the exact per-phase Snapshot deltas of a run into
// distributions: at every phase boundary of the machine.Ledger it reads it
// observes, for the closed phase,
//
//	wa_phase_duration_seconds     the phase's wall time
//	wa_phase_load_words           words loaded across all interfaces
//	wa_phase_store_words          words stored across all interfaces
//	wa_phase_remote_write_share   remote fraction of stored words (NUMA runs)
//	wa_phase_floor_slack_ratio    slow writes / registered store floor
//
// Sums are exact by construction: phase deltas telescope, so the `_sum` of
// the load/store histograms equals the cumulative counter the scalar
// families report — the invariant the exactness tests pin.
//
// It folds nothing itself and is not a machine.Recorder, whatever its name
// says. Built with NewHistogramRecorder it reads a private ledger (attach or
// record into its Ledger(); Phase and Finish drive it); Follow makes it
// read a run's shared one. It is internally locked (the run goroutine
// closes phases, HTTP handlers snapshot concurrently): recording, Phase and
// Finish must stay on the run goroutine, Histograms() is safe anywhere.
type HistogramRecorder struct {
	led *machine.Ledger

	mu         sync.Mutex
	phaseStart time.Time
	now        func() time.Time
	floors     map[string]float64
	finished   bool

	duration    *Histogram
	loads       *Histogram
	stores      *Histogram
	remoteShare *Histogram
	slack       *Histogram
}

// NewHistogramRecorder builds a recorder with the given seed geometry and
// the standard ladders, reading a private ledger.
func NewHistogramRecorder(levels []machine.Level) *HistogramRecorder {
	h := &HistogramRecorder{
		now:         time.Now,
		floors:      map[string]float64{},
		duration:    NewHistogram(SecondsBuckets),
		loads:       NewHistogram(WordBuckets),
		stores:      NewHistogram(WordBuckets),
		remoteShare: NewHistogram(ShareBuckets),
		slack:       NewHistogram(RatioBuckets),
	}
	h.phaseStart = h.now()
	h.Follow(machine.NewLedger(levels))
	return h
}

// Follow makes the recorder observe l's phases from now on instead of the
// ledger it read before.
func (h *HistogramRecorder) Follow(l *machine.Ledger) {
	if h.led != nil {
		h.led.Unobserve(h)
	}
	h.led = l
	l.Observe(h)
}

// Unfollow stops the recorder observing its ledger's phases.
func (h *HistogramRecorder) Unfollow() { h.led.Unobserve(h) }

// Ledger returns the ledger the recorder reads.
func (h *HistogramRecorder) Ledger() *machine.Ledger { return h.led }

// SetClock replaces the wall clock (tests pin durations with a fake one).
// Call before recording starts.
func (h *HistogramRecorder) SetClock(now func() time.Time) {
	h.mu.Lock()
	h.now = now
	h.phaseStart = now()
	h.mu.Unlock()
}

// SetFloor registers the store floor (in words) for phases labeled kernel:
// when such a phase closes, the recorder observes its slow-write count
// divided by the floor into the floor-slack histogram. Zero or negative
// floors are ignored.
func (h *HistogramRecorder) SetFloor(kernel string, storeWords float64) {
	if storeWords <= 0 {
		return
	}
	h.mu.Lock()
	h.floors[kernel] = storeWords
	h.mu.Unlock()
}

// ObserveFloorSlack records one externally computed floor check (observed
// value against its theoretical floor) into the slack histogram — the path
// the experiments' CheckBound-style asserts feed, covering floors that are
// computed per kernel inside a section rather than per phase mark. The
// kernel tag is accepted for symmetry with the conformance API; the
// distribution is deliberately unlabeled (bounded cardinality).
func (h *HistogramRecorder) ObserveFloorSlack(kernel string, observed, floor float64) {
	_ = kernel
	if floor <= 0 {
		return
	}
	h.slack.Observe(observed / floor)
}

// Phase closes the running phase on the recorder's ledger — observing its
// delta into the histograms if it carried any events — and labels
// subsequent events with name.
func (h *HistogramRecorder) Phase(name string) { h.led.Phase(name) }

// Finish closes the final phase and freezes the recorder. Idempotent; call
// from the run goroutine.
func (h *HistogramRecorder) Finish() {
	h.mu.Lock()
	first := !h.finished
	h.finished = true
	h.mu.Unlock()
	if first {
		h.led.Finish()
	}
}

// PhaseClosed observes one closed phase (the ledger calls it at every
// boundary; nil: the phase carried no events, and only restarts the phase
// clock).
func (h *HistogramRecorder) PhaseClosed(p *machine.PhaseDelta) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	if p == nil {
		h.phaseStart = now
		return
	}
	delta := p.Delta
	var loadW, storeW, remoteStoreW int64
	for _, ifc := range delta.Interfaces {
		loadW += ifc.LoadWords
		storeW += ifc.StoreWords
		remoteStoreW += ifc.RemoteStoreWords
	}
	h.duration.Observe(now.Sub(h.phaseStart).Seconds())
	h.loads.Observe(float64(loadW))
	h.stores.Observe(float64(storeW))
	if remoteStoreW > 0 && storeW > 0 {
		h.remoteShare.Observe(float64(remoteStoreW) / float64(storeW))
	}
	if floor, ok := h.floors[p.Kernel]; ok {
		if k := coarsestActive(delta); k >= 0 {
			h.slack.Observe(float64(slowWrites(delta, k)) / floor)
		}
	}
	h.phaseStart = now
}

// Snapshot returns the recorder's cumulative counter snapshot (the running
// phase's events included). Safe from any goroutine.
func (h *HistogramRecorder) Snapshot() machine.Snapshot { return h.led.Snapshot() }

// Histograms renders every phase histogram under its exported family name,
// in the families' declaration order. Safe from any goroutine.
func (h *HistogramRecorder) Histograms() []FamilyHistogram {
	return []FamilyHistogram{
		{Family: "wa_phase_duration_seconds", Snap: h.duration.Snapshot()},
		{Family: "wa_phase_load_words", Snap: h.loads.Snapshot()},
		{Family: "wa_phase_store_words", Snap: h.stores.Snapshot()},
		{Family: "wa_phase_remote_write_share", Snap: h.remoteShare.Snapshot()},
		{Family: "wa_phase_floor_slack_ratio", Snap: h.slack.Snapshot()},
	}
}
