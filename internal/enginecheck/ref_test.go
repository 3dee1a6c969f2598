package enginecheck

// The observers as they were before the shared ledger, kept as the slow
// references the ledger-backed sinks are pinned against (observers_test.go).
// Every sink here folds the whole event stream into a private counter set,
// closes its phases on its own schedule, and snapshots what it needs as it
// goes: the stream recorder, the monitor, the histogram recorder and the
// flight recorder each keep a refGrowing, and the span recorder takes a full
// Snapshot at every push and pop. Locking, sources and HTTP-facing reads are
// dropped: the references are driven from one goroutine, and a hierarchy
// that Syncs them is flushed by the test before every read.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// refGrowing is the per-sink fold: a counter set and a level list that grow
// on demand, as the ledger's own counters do.
type refGrowing struct {
	levels []machine.Level
	cur    *machine.CounterSet
}

func newRefGrowing(levels []machine.Level) *refGrowing {
	if len(levels) < 2 {
		levels = machine.GenericLevels(2)
	}
	return &refGrowing{levels: append([]machine.Level(nil), levels...), cur: machine.NewCounterSet(len(levels))}
}

func (g *refGrowing) record(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin, machine.EvEnd:
		return
	}
	need := 0
	switch e.Kind {
	case machine.EvLoad, machine.EvStore:
		need = e.Arg + 2
	case machine.EvInit, machine.EvDiscard:
		need = e.Arg + 1
	}
	if need > len(g.levels) {
		for i := len(g.levels); i < need; i++ {
			g.levels = append(g.levels, machine.Level{Name: fmt.Sprintf("L%d", i)})
		}
		grown := machine.NewCounterSet(len(g.levels))
		copy(grown.Iface, g.cur.Iface)
		copy(grown.Lvl, g.cur.Lvl)
		grown.FlopCount = g.cur.FlopCount
		g.cur = grown
	}
	g.cur.Record([]machine.Event{e})
}

func (g *refGrowing) Snapshot() machine.Snapshot { return machine.SnapshotOf(g.levels, g.cur) }

// refStream is the old StreamRecorder: its own fold, a record every `every`
// events and at Phase, a final one at Close.
type refStream struct {
	sw            *machine.StreamWriter
	g             *refGrowing
	every         int64
	phase         string
	events, total int64
	closed        bool
}

func newRefStream(w io.Writer, levels []machine.Level, every int64) *refStream {
	return &refStream{sw: machine.NewStreamWriter(w), g: newRefGrowing(levels), every: every}
}

func (s *refStream) Record(events []machine.Event) {
	for _, e := range events {
		s.record(e)
	}
}

func (s *refStream) record(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin, machine.EvEnd:
		return
	}
	s.g.record(e)
	s.events++
	s.total++
	if s.every > 0 && s.events >= s.every {
		s.flush(false)
	}
}

func (s *refStream) Phase(name string) {
	if s.events > 0 {
		s.flush(false)
	}
	s.phase = name
}

func (s *refStream) Close() {
	if !s.closed {
		s.closed = true
		s.flush(true)
	}
}

func (s *refStream) flush(final bool) {
	_ = s.sw.Emit(s.phase, s.events, s.total, s.g.Snapshot(), final)
	s.events = 0
}

// refMonitor is the old Monitor: its own fold, its own phase deltas,
// predictions evaluated at its Phase and Finish.
type refMonitor struct {
	g          *refGrowing
	preds      []monitor.Prediction
	prev       machine.Snapshot
	phase      string
	events     int64
	total      int64
	phases     int64
	violations []monitor.Violation
	finished   bool
	hook       func(monitor.Violation)
}

func newRefMonitor(levels []machine.Level, preds []monitor.Prediction) *refMonitor {
	m := &refMonitor{g: newRefGrowing(levels), preds: preds}
	m.prev = m.g.Snapshot()
	return m
}

func (m *refMonitor) Record(events []machine.Event) {
	for _, e := range events {
		m.record(e)
	}
}

func (m *refMonitor) record(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin, machine.EvEnd:
		return
	}
	m.g.record(e)
	m.events++
	m.total++
}

func (m *refMonitor) Phase(name string) {
	m.closePhase()
	m.phase = name
}

func (m *refMonitor) Finish() []monitor.Violation {
	if !m.finished {
		m.closePhase()
		m.finished = true
	}
	return append([]monitor.Violation(nil), m.violations...)
}

func (m *refMonitor) closePhase() {
	if m.events == 0 {
		return
	}
	cum := m.g.Snapshot()
	delta := cum.Sub(m.prev)
	m.prev = cum
	m.events = 0
	m.phases++
	var found []monitor.Violation
	for _, p := range m.preds {
		if p.Eval == nil || (p.Kernel != "" && p.Kernel != m.phase) {
			continue
		}
		found = append(found, p.Eval(m.phase, delta)...)
	}
	var fresh []monitor.Violation
	for _, v := range found {
		v.ID = int64(len(m.violations)) + 1
		m.violations = append(m.violations, v)
		fresh = append(fresh, v)
	}
	for _, v := range fresh {
		if m.hook != nil {
			m.hook(v)
		}
	}
}

// refHistograms is the old HistogramRecorder: its own fold and phase deltas,
// observed into the standard ladders at its Phase and Finish.
type refHistograms struct {
	g                                         *refGrowing
	prev                                      machine.Snapshot
	phase                                     string
	events                                    int64
	phaseStart                                time.Time
	now                                       func() time.Time
	floors                                    map[string]float64
	finished                                  bool
	duration, loads, stores, remoteShare, slk *monitor.Histogram
}

func newRefHistograms(levels []machine.Level, now func() time.Time) *refHistograms {
	h := &refHistograms{
		g: newRefGrowing(levels), now: now, floors: map[string]float64{},
		duration:    monitor.NewHistogram(monitor.SecondsBuckets),
		loads:       monitor.NewHistogram(monitor.WordBuckets),
		stores:      monitor.NewHistogram(monitor.WordBuckets),
		remoteShare: monitor.NewHistogram(monitor.ShareBuckets),
		slk:         monitor.NewHistogram(monitor.RatioBuckets),
	}
	h.prev = h.g.Snapshot()
	h.phaseStart = now()
	return h
}

func (h *refHistograms) Record(events []machine.Event) {
	for _, e := range events {
		h.record(e)
	}
}

func (h *refHistograms) record(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin, machine.EvEnd:
		return
	}
	h.g.record(e)
	h.events++
}

func (h *refHistograms) Phase(name string) {
	h.closePhase()
	h.phase = name
}

func (h *refHistograms) Finish() {
	if !h.finished {
		h.closePhase()
		h.finished = true
	}
}

func (h *refHistograms) closePhase() {
	now := h.now()
	if h.events == 0 {
		h.phaseStart = now
		return
	}
	cum := h.g.Snapshot()
	delta := cum.Sub(h.prev)
	h.prev = cum
	h.events = 0
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
	if floor, ok := h.floors[h.phase]; ok {
		k := -1
		for i := len(delta.Interfaces) - 1; i >= 0; i-- {
			if delta.Interfaces[i].Traffic != 0 {
				k = i
				break
			}
		}
		if k >= 0 {
			w := delta.Interfaces[k].StoreWords
			if k+1 < len(delta.Levels) {
				w += delta.Levels[k+1].InitWords
			}
			h.slk.Observe(float64(w) / floor)
		}
	}
	h.phaseStart = now
}

func (h *refHistograms) Histograms() []monitor.FamilyHistogram {
	return []monitor.FamilyHistogram{
		{Family: "wa_phase_duration_seconds", Snap: h.duration.Snapshot()},
		{Family: "wa_phase_load_words", Snap: h.loads.Snapshot()},
		{Family: "wa_phase_store_words", Snap: h.stores.Snapshot()},
		{Family: "wa_phase_remote_write_share", Snap: h.remoteShare.Snapshot()},
		{Family: "wa_phase_floor_slack_ratio", Snap: h.slk.Snapshot()},
	}
}

// refFlight is the old flight.Recorder: a ring of whole machine.Event
// values, its own fold, and its own last closed phase.
type refFlight struct {
	ring   []machine.Event
	pos, n int
	seq    int64
	stack  []string
	g      *refGrowing
	prev   machine.Snapshot
	phase  string
	events int64
	closed *flight.PhaseDelta
}

func newRefFlight(capacity int, levels []machine.Level) *refFlight {
	r := &refFlight{ring: make([]machine.Event, capacity), g: newRefGrowing(levels)}
	r.prev = r.g.Snapshot()
	return r
}

func (r *refFlight) WantsSpans() bool { return true }

func (r *refFlight) Record(events []machine.Event) {
	for _, e := range events {
		r.record(e)
	}
}

func (r *refFlight) record(e machine.Event) {
	r.ring[r.pos] = e
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
	}
	if r.n < len(r.ring) {
		r.n++
	}
	r.seq++
	switch e.Kind {
	case machine.EvBegin:
		r.stack = append(r.stack, e.Label)
	case machine.EvEnd:
		if len(r.stack) > 0 {
			r.stack = r.stack[:len(r.stack)-1]
		}
	default:
		r.g.record(e)
		r.events++
	}
}

func (r *refFlight) Phase(name string) {
	r.closePhase()
	r.phase = name
}

func (r *refFlight) Finish() { r.closePhase() }

func (r *refFlight) closePhase() {
	if r.events == 0 {
		return
	}
	cum := r.g.Snapshot()
	r.closed = &flight.PhaseDelta{Kernel: r.phase, Events: r.events, Delta: cum.Sub(r.prev)}
	r.prev = cum
	r.events = 0
}

func (r *refFlight) Capture(reason string) *flight.Window {
	w := &flight.Window{
		Reason:      reason,
		Phase:       r.phase,
		SpanStack:   append([]string(nil), r.stack...),
		TotalEvents: r.seq,
		Dropped:     r.seq - int64(r.n),
		FirstSeq:    r.seq - int64(r.n) + 1,
		Cumulative:  r.g.Snapshot(),
		Events:      make([]flight.EventRecord, 0, r.n),
	}
	if r.closed != nil {
		c := *r.closed
		w.Closed = &c
	}
	start := 0
	if r.n == len(r.ring) {
		start = r.pos
	}
	for i := 0; i < r.n; i++ {
		w.Events = append(w.Events, flight.Decode(w.FirstSeq+int64(i), r.ring[(start+i)%len(r.ring)]))
	}
	return w
}

// refSpan and refSpanRecorder are the old profile.SpanRecorder: a Snapshot
// at every push and pop, a Sub per span, and one counter sample (with its
// interface names concatenated) per boundary.
type refSpan struct {
	Name       string
	Start, End int64
	Delta      machine.Snapshot
	Children   []*refSpan
	startSnap  machine.Snapshot
	open       bool
}

func (s *refSpan) Self() machine.Snapshot {
	self := s.Delta
	for _, c := range s.Children {
		self = self.Sub(c.Delta)
	}
	return self
}

func (s *refSpan) walk(f func(*refSpan, int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

type refSample struct {
	clock int64
	iface []refIfaceSample
	flops int64
}

type refIfaceSample struct {
	name        string
	load, store int64
}

type refSpanRecorder struct {
	g       *refGrowing
	clock   int64
	roots   []*refSpan
	stack   []*refSpan
	samples []refSample
}

func newRefSpanRecorder(levels []machine.Level) *refSpanRecorder {
	return &refSpanRecorder{g: newRefGrowing(levels)}
}

func (r *refSpanRecorder) WantsSpans() bool { return true }

func (r *refSpanRecorder) Record(events []machine.Event) {
	for _, e := range events {
		r.record(e)
	}
}

func (r *refSpanRecorder) record(e machine.Event) {
	switch e.Kind {
	case machine.EvBegin:
		r.push(e.Label)
		return
	case machine.EvEnd:
		r.pop()
		return
	}
	r.g.record(e)
	r.clock++
}

func (r *refSpanRecorder) Mark(name string) {
	for len(r.stack) > 0 {
		r.pop()
	}
	r.push(name)
}

func (r *refSpanRecorder) push(name string) {
	s := &refSpan{Name: name, Start: r.clock, startSnap: r.g.Snapshot(), open: true}
	if n := len(r.stack); n > 0 {
		parent := r.stack[n-1]
		parent.Children = append(parent.Children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.stack = append(r.stack, s)
	r.sample()
}

func (r *refSpanRecorder) pop() {
	n := len(r.stack)
	if n == 0 {
		panic("enginecheck: reference span End without matching Begin")
	}
	s := r.stack[n-1]
	r.stack = r.stack[:n-1]
	s.End = r.clock
	s.Delta = r.g.Snapshot().Sub(s.startSnap)
	s.open = false
	r.sample()
}

func (r *refSpanRecorder) sample() {
	cur, levels := r.g.cur, r.g.levels
	cs := refSample{clock: r.clock, flops: cur.FlopCount}
	for i := range cur.Iface {
		cs.iface = append(cs.iface, refIfaceSample{
			name:  levels[i].Name + "<->" + levels[i+1].Name,
			load:  cur.Iface[i].LoadWords,
			store: cur.Iface[i].StoreWords,
		})
	}
	r.samples = append(r.samples, cs)
}

func (r *refSpanRecorder) Finish() {
	for len(r.stack) > 0 {
		r.pop()
	}
}

func (r *refSpanRecorder) Unattributed() machine.Snapshot {
	out := r.g.Snapshot()
	for _, s := range r.roots {
		if !s.open {
			out = out.Sub(s.Delta)
		} else {
			out = out.Sub(r.g.Snapshot().Sub(s.startSnap))
		}
	}
	return out
}

// addRefRecorder is the old TraceBuilder.AddRecorder over a reference
// recorder, through the builder's exported methods (AddSpan writes the same
// B/E pair the old loop appended).
func addRefRecorder(b *profile.TraceBuilder, pid, tid int, name string, r *refSpanRecorder) {
	r.Finish()
	b.AddThreadName(pid, tid, name)
	for _, root := range r.roots {
		root.walk(func(s *refSpan, _ int) {
			b.AddSpan(pid, tid, s.Name, float64(s.Start), float64(s.End), refSpanArgs(s.Delta))
		}, 0)
	}
	for _, cs := range r.samples {
		for _, ifc := range cs.iface {
			b.AddCounter(pid, name+" "+ifc.name, float64(cs.clock), map[string]any{
				"loadWords":  ifc.load,
				"storeWords": ifc.store,
			})
		}
		b.AddCounter(pid, name+" flops", float64(cs.clock), map[string]any{"flops": cs.flops})
	}
}

func refSpanArgs(d machine.Snapshot) map[string]any {
	args := map[string]any{"flops": d.Flops}
	for i, ifc := range d.Interfaces {
		args[fmt.Sprintf("if%d.loadWords", i)] = ifc.LoadWords
		args[fmt.Sprintf("if%d.storeWords", i)] = ifc.StoreWords
	}
	return args
}

// refGroup is one old profile.ProcGroup: a span recorder per rank.
type refGroup struct {
	name string
	recs []*refSpanRecorder // by rank
}

// refTrace is the old Profiler.WriteTrace.
func refTrace(main *refSpanRecorder, groups []refGroup) []byte {
	b := profile.NewTraceBuilder()
	addRefRecorder(b, 0, 0, "main", main)
	for i, g := range groups {
		b.AddProcessName(i+1, g.name)
		for rank, r := range g.recs {
			addRefRecorder(b, i+1, rank, fmt.Sprintf("p%d", rank), r)
		}
	}
	var out strings.Builder
	if err := b.Write(&out); err != nil {
		panic(err)
	}
	return []byte(out.String())
}

// refSummary is the old Profiler.Summary.
func refSummary(main *refSpanRecorder, groups []refGroup) string {
	top := func(s machine.Snapshot) machine.InterfaceSnapshot {
		if len(s.Interfaces) == 0 {
			return machine.InterfaceSnapshot{}
		}
		for i := len(s.Interfaces) - 1; i >= 0; i-- {
			if ifc := s.Interfaces[i]; ifc.LoadWords != 0 || ifc.StoreWords != 0 {
				return ifc
			}
		}
		return s.Interfaces[len(s.Interfaces)-1]
	}
	clip := func(s string, n int) string {
		if len(s) <= n {
			return s
		}
		return s[:n-1] + "…"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %12s\n", "span", "loadWords", "storeWords", "flops")
	main.Finish()
	for _, root := range main.roots {
		root.walk(func(s *refSpan, depth int) {
			t := top(s.Delta)
			fmt.Fprintf(&b, "%-40s %12d %12d %12d\n", clip(strings.Repeat("  ", depth)+s.Name, 40), t.LoadWords, t.StoreWords, s.Delta.Flops)
		}, 0)
	}
	for _, g := range groups {
		var spans int
		var stores int64
		for _, r := range g.recs {
			r.Finish()
			for _, root := range r.roots {
				root.walk(func(s *refSpan, _ int) {
					spans++
					stores += top(s.Delta).StoreWords
				}, 0)
			}
		}
		fmt.Fprintf(&b, "%-40s %12s %12d %12s  (%d procs, %d spans)\n",
			clip("group "+g.name, 40), "-", stores, "-", len(g.recs), spans)
	}
	return b.String()
}

// renderRefForest renders a reference forest the way renderForest renders a
// profile one: every span's boundaries, Delta and Self.
func renderRefForest(roots []*refSpan) string {
	var b strings.Builder
	for _, r := range roots {
		r.walk(func(s *refSpan, depth int) {
			fmt.Fprintf(&b, "%s%s [%d,%d] %s self %s\n", strings.Repeat("  ", depth), s.Name,
				s.Start, s.End, canonJSON(s.Delta), canonJSON(s.Self()))
		}, 0)
	}
	return b.String()
}

// renderForest renders a profile forest canonically, Self included.
func renderForest(roots []*profile.Span) string {
	var b strings.Builder
	for _, r := range roots {
		r.Walk(func(s *profile.Span, depth int) {
			fmt.Fprintf(&b, "%s%s [%d,%d] %s self %s\n", strings.Repeat("  ", depth), s.Name,
				s.Start, s.End, canonJSON(s.Delta), canonJSON(s.Self()))
		})
	}
	return b.String()
}
