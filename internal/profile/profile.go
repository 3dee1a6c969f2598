// Package profile is the attribution layer over the machine.Recorder event
// engine: where the default counters answer "how many words moved", this
// package answers *where they came from* — which phase of which algorithm.
//
// Two cooperating parts, over any Hierarchy (or recorded into directly):
//
//   - SpanRecorder turns the nested EvBegin/EvEnd marks the algorithm
//     drivers emit (panel/update/trsm phases, parallel supersteps) into a
//     span tree. Every span carries the exact Snapshot delta of the events
//     inside it, extending the streaming layer's exactness invariant to
//     trees: child deltas plus the parent's self events sum to the parent,
//     and the implicit root's delta is the post-hoc snapshot. It reads a
//     machine.Ledger's fold, and that ledger is what attaches. At every
//     boundary it logs only the counter fields that moved, and it keeps
//     the log and its boundary and span records in chunks that start
//     small, double up to a cap and never move, so a rank tree of an
//     observed dist op allocates about what it records.
//   - The Chrome trace-event exporter (WriteTraceEvent, TraceBuilder)
//     renders span trees as B/E duration events plus per-interface C
//     counter tracks, one pid/tid pair per processor, so any wabench or
//     pmm run opens directly in Perfetto or chrome://tracing.
//
// The Profiler type bundles a main SpanRecorder with per-processor groups
// for distributed runs; cmd/wabench drives one behind -trace and -profile.
package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"writeavoid/internal/machine"
)

// Profiler is the front-end cmd/wabench and tests use: one SpanRecorder for
// the serial portions of a run (attached to every sequential hierarchy the
// way a StreamRecorder is), plus named groups of per-processor recorders
// collected from distributed machines. It renders everything as one Chrome
// trace or as an ASCII summary.
type Profiler struct {
	Main *SpanRecorder

	mu     sync.Mutex
	groups []*ProcGroup
	rows   rowScratch // Summary's scratch, shared across recorders
}

// NewProfiler builds a profiler whose main recorder starts with the given
// geometry (growing on demand, like a stream recorder).
func NewProfiler(levels []machine.Level) *Profiler {
	return &Profiler{Main: NewSpanRecorder(levels)}
}

// Mark closes every span open on the main recorder and opens a new
// top-level span named name: the section boundary of a wabench run.
func (p *Profiler) Mark(name string) { p.Main.Mark(name) }

// ProcGroup is one distributed run's worth of per-processor span recorders;
// each processor becomes its own tid under the group's pid in the exported
// trace.
type ProcGroup struct {
	Name string

	mu   sync.Mutex
	recs map[int]*SpanRecorder
}

// Group registers (and returns) a named group of per-processor recorders.
// Pass its Recorder method as dist.Config.Observe.
func (p *Profiler) Group(name string) *ProcGroup {
	g := &ProcGroup{Name: name, recs: make(map[int]*SpanRecorder)}
	p.mu.Lock()
	p.groups = append(p.groups, g)
	p.mu.Unlock()
	return g
}

// Recorder returns the ledger of processor rank's span recorder, creating
// the recorder on first use with a private ledger. It matches the
// dist.Observer signature, so a whole machine is wired with Observe:
// group.Recorder. Safe for concurrent use.
func (g *ProcGroup) Recorder(rank int) machine.Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.recs[rank]
	if !ok {
		r = NewSpanRecorder(nil)
		g.recs[rank] = r
	}
	return r.Ledger()
}

// Follow gives rank a span recorder that logs l's counters at l's span
// marks — the rank's ledger, which experiments.Session shares with the
// rank's flight ring so the rank's events are folded once for both —
// replacing any recorder the rank had. Safe for concurrent use.
func (g *ProcGroup) Follow(rank int, l *machine.Ledger) {
	r := follow(l)
	g.mu.Lock()
	g.recs[rank] = r
	g.mu.Unlock()
}

// Proc returns rank's recorder, or nil if that rank never recorded.
func (g *ProcGroup) Proc(rank int) *SpanRecorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs[rank]
}

// Ranks returns the ranks with recorders, sorted.
func (g *ProcGroup) Ranks() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.recs))
	for r := range g.recs {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// WriteTrace exports the whole profile — main spans as pid 0 and each
// processor group as its own pid with one tid per rank — as Chrome
// trace-event JSON.
func (p *Profiler) WriteTrace(w io.Writer) error {
	b := NewTraceBuilder()
	b.AddRecorder(0, 0, "main", p.Main)
	p.mu.Lock()
	groups := append([]*ProcGroup(nil), p.groups...)
	p.mu.Unlock()
	for i, g := range groups {
		pid := i + 1
		b.AddProcessName(pid, g.Name)
		for _, rank := range g.Ranks() {
			b.AddRecorder(pid, rank, fmt.Sprintf("p%d", rank), g.recs[rank])
		}
	}
	return b.Write(w)
}

// Summary renders the main span tree as an aligned ASCII table: one row per
// span with its slow-memory writes, loads and flops. Per-processor groups
// report their rank count and aggregate slow writes. It reads the
// recorders' boundary logs directly and builds no span tree.
func (p *Profiler) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %12s\n", "span", "loadWords", "storeWords", "flops")
	m := p.Main
	m.Finish()
	for i := int32(0); i < m.spans.len(); i++ {
		sp := m.spans.at(i)
		d := m.counters(&p.rows, sp.start, sp.end)
		top := topIface(d)
		name := strings.Repeat("  ", int(sp.depth)) + sp.name
		fmt.Fprintf(&b, "%-40s %12d %12d %12d\n", clip(name, 40), top.LoadWords, top.StoreWords, d.FlopCount)
	}
	p.mu.Lock()
	groups := append([]*ProcGroup(nil), p.groups...)
	p.mu.Unlock()
	for _, g := range groups {
		var spans int
		var stores int64
		for _, rank := range g.Ranks() {
			r := g.recs[rank]
			r.Finish()
			for i := int32(0); i < r.spans.len(); i++ {
				sp := r.spans.at(i)
				spans++
				stores += topIface(r.counters(&p.rows, sp.start, sp.end)).StoreWords
			}
		}
		fmt.Fprintf(&b, "%-40s %12s %12d %12s  (%d procs, %d spans)\n",
			clip("group "+g.Name, 40), "-", stores, "-", len(g.recs), spans)
	}
	return b.String()
}

// topIface returns the delta's coarsest interface that saw any traffic
// (falling back to the true coarsest): sinks driven directly rather than
// through a full hierarchy (the krylov Traffic counter) charge interface 0
// even when the shared recorder's geometry is deeper, and a summary of
// all-zero rows would hide them.
func topIface(d *machine.CounterSet) machine.InterfaceCounters {
	if len(d.Iface) == 0 {
		return machine.InterfaceCounters{}
	}
	for i := len(d.Iface) - 1; i >= 0; i-- {
		if ifc := d.Iface[i]; ifc.LoadWords != 0 || ifc.StoreWords != 0 {
			return ifc
		}
	}
	return d.Iface[len(d.Iface)-1]
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
