// Package monitor is the online theory-conformance layer over the
// machine.Recorder event engine: where the streaming layer reports what the
// counters did, this package continuously asserts what the paper says they
// *must* do. A Monitor folds no counters and is not a recorder: hierarchies
// attach the machine.Ledger it reads, the one counter fold of a run, and at
// every phase boundary the ledger hands it the exact Snapshot delta of the
// closed phase — the same immutable delta the histograms, the flight
// recorder and the streams of that ledger get. The monitor evaluates the
// registered per-kernel predictions against it —
// Theorem 1's fast-write inequality, the Θ(output) write-avoiding floor and
// ceiling of Section 4, the classical n³/√M traffic lower bound, Theorem 2's
// store fraction, and the Proposition 6.1 LRU write-back counts for
// cache-simulated sections — emitting a structured Violation for every
// bound that fails. The HistogramRecorder (histogram.go) reads a ledger the
// same way.
//
// The companion Server (server.go) serves the same state live over HTTP:
// Prometheus text metrics, JSON snapshots and span trees, an SSE bridge over
// the streaming JSONL records, and the violation list — so a long run is
// both watchable and continuously self-checking. Its /metrics body is
// encoded family by family straight from the sources into a pooled buffer
// (prometheus.go), so a scrape allocates nothing per sample however many
// rank snapshots a dist run publishes.
package monitor

import (
	"fmt"
	"sync"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// Violation is one failed prediction: the bound that broke, on which phase,
// with the expected and observed values and the slack the check allowed.
type Violation struct {
	// ID is the violation's stable monotonic number, assigned in recording
	// order when the monitor appends it (1-based; 0 only on values that
	// never passed through a monitor). Pollers page /violations?since=ID
	// and the flight recorder's /violations/{id}/dump keys bundles by it.
	ID int64 `json:"id"`
	// Check names the prediction ("theorem1", "wa-output-floor", ...).
	Check string `json:"check"`
	// Kernel is the phase / kernel label the check evaluated against.
	Kernel string `json:"kernel"`
	// Expected is the theoretical bound; Observed the measured value. For
	// floor checks Observed >= Expected/Slack was required; for ceilings
	// Observed <= Expected*Slack.
	Expected float64 `json:"expected"`
	Observed float64 `json:"observed"`
	Slack    float64 `json:"slack"`
	// Detail carries the human-readable specifics (interface, units).
	Detail string `json:"detail,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s[%s]: observed %.6g vs expected %.6g (slack %.3g)",
		v.Check, v.Kernel, v.Observed, v.Expected, v.Slack)
	if v.Detail != "" {
		s += " — " + v.Detail
	}
	return s
}

// Prediction is one registered theoretical bound. Exactly one of Eval and
// EvalStats is set: Eval checks a phase's Snapshot delta (hierarchy-counted
// kernels), EvalStats checks a cache.Stats observation (sections backed by
// raw cache simulators, where the bound governs write-backs).
type Prediction struct {
	// Check is the name violations carry.
	Check string
	// Kernel scopes the prediction to phases (or stats observations) with
	// this exact label; empty applies to every phase.
	Kernel string
	// Eval inspects one phase delta and returns any violations.
	Eval func(kernel string, delta machine.Snapshot) []Violation
	// EvalStats inspects one cache.Stats observation.
	EvalStats func(kernel string, st cache.Stats) []Violation
}

// Registry is an immutable-after-setup set of predictions; a Monitor
// evaluates it. Registration is not safe concurrently with evaluation.
type Registry struct {
	preds []Prediction
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a prediction. It panics if neither evaluator is set — a
// registry of unevaluable predictions is a configuration bug.
func (r *Registry) Register(p Prediction) {
	if p.Eval == nil && p.EvalStats == nil {
		panic("monitor: prediction needs Eval or EvalStats")
	}
	r.preds = append(r.preds, p)
}

// Len returns the number of registered predictions.
func (r *Registry) Len() int { return len(r.preds) }

// Monitor evaluates the registry against each closed phase's delta. It
// folds nothing itself and is not a recorder: it reads a machine.Ledger,
// private when the monitor is built with New and used on its own (attach or
// record into its Ledger(); Phase and Finish drive that ledger), or a run's
// shared one after Follow. It is internally
// locked: the run goroutine closes phases while HTTP handlers read
// Snapshot and Violations concurrently.
type Monitor struct {
	led *machine.Ledger

	mu         sync.Mutex
	reg        *Registry
	phases     int64 // phases that carried at least one event
	violations []Violation
	finished   bool
	hook       func(Violation)
}

// SetViolationHook installs fn to be called, outside the monitor's lock and
// on the goroutine that recorded the violation, for every violation as it
// is appended — the flight recorder's capture trigger. The hook sees the
// violation with its assigned ID. Phase-check violations fire on the run
// goroutine during the ledger's Phase/Finish, after the ledger recorded the
// closed phase, so a hook may freeze run-goroutine state (flight captures,
// span renders) safely. Install before recording starts; nil removes.
func (m *Monitor) SetViolationHook(fn func(Violation)) {
	m.mu.Lock()
	m.hook = fn
	m.mu.Unlock()
}

// addViolationsLocked assigns monotonic IDs and appends; callers hold mu
// and must fire the returned stamped violations through fireHook after
// unlocking.
func (m *Monitor) addViolationsLocked(vs []Violation) []Violation {
	if len(vs) == 0 {
		return nil
	}
	stamped := make([]Violation, len(vs))
	for i, v := range vs {
		v.ID = int64(len(m.violations)) + 1
		m.violations = append(m.violations, v)
		stamped[i] = v
	}
	return stamped
}

// fireHook delivers stamped violations to the installed hook, outside the
// lock.
func (m *Monitor) fireHook(hook func(Violation), vs []Violation) {
	if hook == nil {
		return
	}
	for _, v := range vs {
		hook(v)
	}
}

// New builds a monitor with the given seed geometry evaluating reg (nil:
// an empty registry, so the monitor only aggregates), reading a private
// ledger.
func New(levels []machine.Level, reg *Registry) *Monitor {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &Monitor{reg: reg}
	m.Follow(machine.NewLedger(levels))
	return m
}

// Follow makes the monitor evaluate l's phases from now on, and read its
// totals, instead of the ledger it read before.
func (m *Monitor) Follow(l *machine.Ledger) {
	if m.led != nil {
		m.led.Unobserve(m)
	}
	m.led = l
	l.Observe(m)
}

// Unfollow stops the monitor evaluating its ledger's phases.
func (m *Monitor) Unfollow() { m.led.Unobserve(m) }

// Ledger returns the ledger the monitor reads.
func (m *Monitor) Ledger() *machine.Ledger { return m.led }

// Phase closes the current phase on the monitor's ledger — checking its
// exact delta against every matching prediction if it saw any events — and
// labels subsequent events with name. Events still buffered in observed
// hierarchies are synced in first, so a phase delta covers exactly the
// events emitted under its label. On a shared ledger this is every reader's
// phase mark.
func (m *Monitor) Phase(name string) { m.led.Phase(name) }

// Finish syncs buffered events, closes the final phase and freezes the
// monitor, returning every violation recorded over the run. Idempotent. Call
// from the run goroutine.
func (m *Monitor) Finish() []Violation {
	m.mu.Lock()
	first := !m.finished
	m.finished = true
	m.mu.Unlock()
	if first {
		m.led.Finish()
	}
	return m.Violations()
}

// PhaseClosed evaluates one closed phase (the ledger calls it at every
// boundary; nil: the phase carried no events) and delivers fresh violations
// to the hook after unlocking.
func (m *Monitor) PhaseClosed(p *machine.PhaseDelta) {
	if p == nil {
		return
	}
	m.mu.Lock()
	m.phases++
	var found []Violation
	for _, pr := range m.reg.preds {
		if pr.Eval == nil || (pr.Kernel != "" && pr.Kernel != p.Kernel) {
			continue
		}
		found = append(found, pr.Eval(p.Kernel, p.Delta)...)
	}
	fresh := m.addViolationsLocked(found)
	hook := m.hook
	m.mu.Unlock()
	m.fireHook(hook, fresh)
}

// ObserveStats evaluates the stats-based predictions registered for kernel
// against one cache.Stats observation (a finished cache simulation). Safe
// from any goroutine.
func (m *Monitor) ObserveStats(kernel string, st cache.Stats) {
	m.mu.Lock()
	var found []Violation
	for _, p := range m.reg.preds {
		if p.EvalStats == nil || (p.Kernel != "" && p.Kernel != kernel) {
			continue
		}
		found = append(found, p.EvalStats(kernel, st)...)
	}
	fresh := m.addViolationsLocked(found)
	hook := m.hook
	m.mu.Unlock()
	m.fireHook(hook, fresh)
}

// CheckBound records a direct bound check outside the registry: sections
// that already computed both sides (the distributed W1/W2 bounds) assert
// them through here so the verdict lands in the same violation stream.
// Floor semantics (ceiling=false): pass iff observed >= expected/slack;
// ceiling: pass iff observed <= expected*slack. Slack >= 1 always loosens.
// Returns true when the bound held.
func (m *Monitor) CheckBound(check, kernel string, observed, expected, slack float64, ceiling bool) bool {
	if slack <= 0 {
		slack = 1
	}
	ok := observed >= expected/slack
	kind := "floor"
	if ceiling {
		ok = observed <= expected*slack
		kind = "ceiling"
	}
	if ok {
		return true
	}
	m.mu.Lock()
	fresh := m.addViolationsLocked([]Violation{{
		Check: check, Kernel: kernel,
		Expected: expected, Observed: observed, Slack: slack,
		Detail: kind + " violated",
	}})
	hook := m.hook
	m.mu.Unlock()
	m.fireHook(hook, fresh)
	return false
}

// CheckPerSocket asserts the same bound once per socket: observed[s] is
// socket s's measured value (e.g. the max per-rank network words among its
// ranks) checked against the one expected value with CheckBound semantics,
// each verdict recorded under kernel + "/socket<s>". This is how the WA
// distributed W2 floor is asserted per-socket as well as globally on a NUMA
// machine: a homogeneous algorithm's critical path lower bound applies
// within every socket, not just to the machine-wide maximum. Returns true
// iff every socket's bound held.
func (m *Monitor) CheckPerSocket(check, kernel string, observed []float64, expected, slack float64, ceiling bool) bool {
	ok := true
	for s, obs := range observed {
		if !m.CheckBound(check, fmt.Sprintf("%s/socket%d", kernel, s), obs, expected, slack, ceiling) {
			ok = false
		}
	}
	return ok
}

// Violations returns a copy of the violations recorded so far.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.violations...)
}

// ViolationsSince returns the violations with ID > since — IDs are assigned
// densely in recording order, so pollers page with the last ID they saw.
func (m *Monitor) ViolationsSince(since int64) []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= int64(len(m.violations)) {
		return nil
	}
	return append([]Violation(nil), m.violations[since:]...)
}

// Snapshot returns the monitor's cumulative snapshot. Safe from any
// goroutine; this is what the HTTP /snapshot and /metrics endpoints serve.
func (m *Monitor) Snapshot() machine.Snapshot { return m.led.Snapshot() }

// Phases returns how many phases carried events so far.
func (m *Monitor) Phases() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phases
}

// TotalEvents returns the counter-bearing events seen so far, syncing any
// batch-buffered events first. Call from the run goroutine; other goroutines
// read PeekTotalEvents.
func (m *Monitor) TotalEvents() int64 {
	m.led.Sync()
	return m.PeekTotalEvents()
}

// PeekTotalEvents returns the counter-bearing events recorded so far without
// syncing batch-buffered events: safe from any goroutine, at batch rather
// than event granularity, like Snapshot. This is what /metrics serves.
func (m *Monitor) PeekTotalEvents() int64 { return m.led.Events() }
