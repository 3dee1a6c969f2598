package flight

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"writeavoid/internal/machine"
)

// EventRecord is one ring event decoded for the wire: the kind named, the
// interned span label carried through, every machine.Event field preserved
// so a decoded tail can be compared bit for bit against the raw stream.
type EventRecord struct {
	Seq    int64  `json:"seq"`
	Kind   string `json:"kind"`
	Arg    int    `json:"arg,omitempty"`
	Words  int64  `json:"words,omitempty"`
	Remote bool   `json:"remote,omitempty"`
	Label  string `json:"label,omitempty"`
}

// Decode renders one raw event as the record a captured window holds; tests
// decode reference-engine tails through the same function to pin
// bit-identity.
func Decode(seq int64, e machine.Event) EventRecord {
	return EventRecord{
		Seq:    seq,
		Kind:   e.Kind.String(),
		Arg:    e.Arg,
		Words:  e.Words,
		Remote: e.Remote,
		Label:  e.Label,
	}
}

// PhaseDelta is one closed phase: its label, its counter-bearing event
// count, and the exact Snapshot delta of the events recorded under it — on
// a ledger shared with the monitor, the very value its phase checks
// evaluated.
type PhaseDelta = machine.PhaseDelta

// Window is one immutable freeze of a recorder's state: the decoded event
// tail (oldest first), the open span stack, the phase context, and the drop
// accounting. Windows are plain data; nothing aliases the live ring.
type Window struct {
	Reason string `json:"reason"`
	// Phase is the running phase label at capture; Closed the last phase
	// that closed with events (nil before the first).
	Phase  string      `json:"phase,omitempty"`
	Closed *PhaseDelta `json:"closed,omitempty"`
	// SpanStack lists the spans open at capture, outermost first.
	SpanStack []string `json:"spanStack,omitempty"`
	// Events is the ring tail; FirstSeq is Events[0]'s sequence number,
	// TotalEvents the events ever recorded, Dropped how many were
	// overwritten before this capture could freeze them.
	Events      []EventRecord `json:"events"`
	FirstSeq    int64         `json:"firstSeq"`
	TotalEvents int64         `json:"totalEvents"`
	Dropped     int64         `json:"dropped"`
	// Cumulative is the recorder's whole-run snapshot at capture.
	Cumulative machine.Snapshot `json:"cumulative"`
}

// Superstep returns the innermost open span that looks like a distributed
// superstep label ("step 3" — the interned labels pmm and plu ranks begin
// each barrier-to-barrier step with), falling back to the last such Begin
// in the event window when the stack has none (a rank captured between
// steps). This is how per-rank windows of one machine are correlated: every
// rank at the same barrier generation reports the same label.
func (w *Window) Superstep() (string, bool) {
	isStep := func(label string) bool { return strings.HasPrefix(label, "step ") }
	for i := len(w.SpanStack) - 1; i >= 0; i-- {
		if isStep(w.SpanStack[i]) {
			return w.SpanStack[i], true
		}
	}
	for i := len(w.Events) - 1; i >= 0; i-- {
		if e := w.Events[i]; e.Kind == "Begin" && isStep(e.Label) {
			return e.Label, true
		}
	}
	return "", false
}

// ViolationInfo is the violation metadata a bundle carries — the same JSON
// shape as monitor.Violation (flight sits below monitor in the dependency
// order, so the fields are mirrored rather than imported).
type ViolationInfo struct {
	ID       int64   `json:"id"`
	Check    string  `json:"check"`
	Kernel   string  `json:"kernel"`
	Expected float64 `json:"expected"`
	Observed float64 `json:"observed"`
	Slack    float64 `json:"slack"`
	Detail   string  `json:"detail,omitempty"`
}

// RankWindow is one distributed rank's frozen ring inside a bundle.
type RankWindow struct {
	Run  string `json:"run"`
	Rank int    `json:"rank"`
	// Superstep is the rank's correlation label at capture (see
	// Window.Superstep); empty when the rank ran no superstep spans.
	Superstep string  `json:"superstep,omitempty"`
	Window    *Window `json:"window"`
}

// Bundle is one immutable forensic capture: why it was taken, the main
// window, and — for violations raised against a distributed run — every
// rank's window correlated by superstep.
type Bundle struct {
	// Seq is the bundle's own monotonic number, assigned by whoever stores
	// it (the monitor server); 0 until then.
	Seq        int64          `json:"seq,omitempty"`
	Reason     string         `json:"reason"` // "violation" | "manual"
	CapturedAt time.Time      `json:"capturedAt"`
	Violation  *ViolationInfo `json:"violation,omitempty"`
	Window     *Window        `json:"window"`
	Ranks      []RankWindow   `json:"ranks,omitempty"`
}

// WriteJSON serializes the bundle, indented, trailing newline — the dump
// file and /violations/{id}/dump format.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Group is a set of per-rank flight recorders for one distributed run; its
// Recorder method matches the dist.Observer signature, the same shape as
// profile.ProcGroup.
type Group struct {
	Name string

	capacity int
	levels   []machine.Level

	mu    sync.Mutex
	recs  map[int]*Recorder
	spare []*Recorder // rings handed over by Reuse, for Follow to take
}

// NewGroup builds a group whose rank recorders use the given ring capacity
// and seed geometry.
func NewGroup(name string, capacity int, levels []machine.Level) *Group {
	return &Group{Name: name, capacity: capacity, levels: levels, recs: map[int]*Recorder{}}
}

// Recorder returns the ledger of rank's flight recorder, creating the
// recorder on first use with a private ledger. It matches the dist.Observer
// signature. Safe for concurrent use (dist ranks construct concurrently).
func (g *Group) Recorder(rank int) machine.Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.recs[rank]
	if !ok {
		r = New(g.capacity, g.levels)
		g.recs[rank] = r
	}
	return r.Ledger()
}

// Follow gives rank a flight recorder whose ring is fed by l, the rank's
// ledger (experiments.Session shares it with the rank's span tree, so the
// rank's events are folded once for both), replacing any recorder the rank
// had. Safe for concurrent use.
func (g *Group) Follow(rank int, l *machine.Ledger) {
	g.mu.Lock()
	var r *Recorder
	if n := len(g.spare); n > 0 {
		r, g.spare = g.spare[n-1], g.spare[:n-1]
	}
	g.mu.Unlock()
	if r == nil {
		r = newRing(g.capacity)
	} else {
		r.reset()
	}
	r.Follow(l)
	g.mu.Lock()
	g.recs[rank] = r
	g.mu.Unlock()
}

// Reuse hands prev's rings to g, which gives them, emptied, to the ranks it
// follows before it allocates any: a run reads only its latest group
// (experiments.Session keeps one), so the group before it need not keep its
// rings. prev holds no ranks afterwards. A prev of another capacity keeps
// its rings.
func (g *Group) Reuse(prev *Group) {
	if prev == nil || prev.capacity != g.capacity {
		return
	}
	prev.mu.Lock()
	rings := prev.spare
	for _, r := range prev.recs {
		rings = append(rings, r)
	}
	prev.spare = nil
	clear(prev.recs)
	prev.mu.Unlock()
	g.mu.Lock()
	g.spare = append(g.spare, rings...)
	g.mu.Unlock()
}

// Ranks returns the ranks with recorders, sorted.
func (g *Group) Ranks() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.recs))
	for r := range g.recs {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Proc returns rank's recorder, or nil if that rank never recorded.
func (g *Group) Proc(rank int) *Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs[rank]
}

// Windows freezes every rank's ring (Peek semantics: no hierarchy sync —
// dist ranks flush at barriers and at run end, so a capture between
// barriers is at barrier granularity) and returns them with their superstep
// correlation labels, sorted by rank.
func (g *Group) Windows(reason string) []RankWindow {
	out := make([]RankWindow, 0, len(g.recs))
	for _, rank := range g.Ranks() {
		w := g.Proc(rank).Peek(reason)
		rw := RankWindow{Run: g.Name, Rank: rank, Window: w}
		rw.Superstep, _ = w.Superstep()
		out = append(out, rw)
	}
	return out
}
