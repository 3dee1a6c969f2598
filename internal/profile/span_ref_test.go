package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"writeavoid/internal/machine"
)

// refRecorder is the span recorder as it was before its row log kept only
// the fields that moved: a whole machine.RowWidth row of cumulative
// counters per boundary, in chunks, read back directly. It is the
// reference the masked row log, the span trees, Summary, Unattributed and
// the trace exporter built on it are checked against.
type refRecorder struct {
	led    *machine.Ledger
	rows   [][]int64
	bounds []refBoundary
	spans  []spanRec
	stack  []int32
	diff   machine.CounterSet
	cur    []int64
}

type refBoundary struct {
	clock         int64
	chunk, off, n int32
}

func newRefRecorder(l *machine.Ledger) *refRecorder {
	r := &refRecorder{led: l}
	l.SetSpanTap(r)
	return r
}

func (r *refRecorder) SpanBegin(label string) { r.push(label) }
func (r *refRecorder) SpanEnd()               { r.pop() }

func (r *refRecorder) Begin(name string) { r.led.Sync(); r.push(name) }
func (r *refRecorder) End()              { r.led.Sync(); r.pop() }

func (r *refRecorder) Mark(name string) {
	r.led.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
	r.push(name)
}

func (r *refRecorder) boundary() int32 {
	c := r.led.Counters()
	n := machine.RowWidth(len(c.Lvl))
	k := len(r.rows) - 1
	if k < 0 || len(r.rows[k])+n > cap(r.rows[k]) {
		size := minRowChunk
		if k >= 0 {
			size = min(2*cap(r.rows[k]), maxRowChunk)
		}
		r.rows = append(r.rows, make([]int64, 0, max(size, n)))
		k++
	}
	off := len(r.rows[k])
	r.rows[k] = c.AppendRow(r.rows[k])
	r.bounds = append(r.bounds, refBoundary{clock: r.led.Clock(), chunk: int32(k), off: int32(off), n: int32(n)})
	return int32(len(r.bounds) - 1)
}

func (r *refRecorder) push(name string) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, spanRec{name: name, parent: parent, depth: int32(len(r.stack)), start: r.boundary(), end: -1})
	r.stack = append(r.stack, int32(len(r.spans)-1))
}

func (r *refRecorder) pop() {
	n := len(r.stack)
	if n == 0 {
		panic("profile: span End without matching Begin")
	}
	top := r.stack[n-1]
	r.stack = r.stack[:n-1]
	r.spans[top].end = r.boundary()
}

func (r *refRecorder) row(b int32) []int64 {
	bd := &r.bounds[b]
	return r.rows[bd.chunk][bd.off : bd.off+bd.n]
}

func (r *refRecorder) counters(c *machine.CounterSet, start, end int32) *machine.CounterSet {
	var hi []int64
	if end < 0 {
		r.cur = r.led.Counters().AppendRow(r.cur[:0])
		hi = r.cur
	} else {
		hi = r.row(end)
	}
	c.SetRowDiff(hi, r.row(start))
	return c
}

func (r *refRecorder) delta(start, end int32) machine.Snapshot {
	return r.led.Render(r.counters(&r.diff, start, end))
}

func (r *refRecorder) Finish() {
	r.led.Sync()
	for len(r.stack) > 0 {
		r.pop()
	}
}

// Roots builds the forest afresh: every span's clocks, and the delta of
// every closed one.
func (r *refRecorder) Roots() []*Span {
	r.led.Sync()
	var roots, nodes []*Span
	for i := range r.spans {
		sp := &r.spans[i]
		n := &Span{Name: sp.name, Start: r.bounds[sp.start].clock}
		if sp.end >= 0 {
			n.End = r.bounds[sp.end].clock
			n.Delta = r.delta(sp.start, sp.end)
		}
		if sp.parent < 0 {
			roots = append(roots, n)
		} else {
			p := nodes[sp.parent]
			p.Children = append(p.Children, n)
		}
		nodes = append(nodes, n)
	}
	return roots
}

func (r *refRecorder) Unattributed() machine.Snapshot {
	r.led.Sync()
	out := r.led.Snapshot()
	for i := range r.spans {
		if sp := &r.spans[i]; sp.parent < 0 {
			out = out.Sub(r.delta(sp.start, sp.end))
		}
	}
	return out
}

// refTraceEvent and refBuilder are the trace builder as it was before it
// encoded its events itself: map arguments, encoding/json for the file.
type refTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type refBuilder struct{ events []refTraceEvent }

func (b *refBuilder) AddProcessName(pid int, name string) {
	b.events = append(b.events, refTraceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
}

func (b *refBuilder) AddThreadName(pid, tid int, name string) {
	b.events = append(b.events, refTraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

func (b *refBuilder) AddCounter(pid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, refTraceEvent{Name: name, Ph: "C", Ts: ts, Pid: pid, Args: args})
}

func (b *refBuilder) AddSpan(pid, tid int, name string, start, end float64, args map[string]any) {
	b.events = append(b.events,
		refTraceEvent{Name: name, Ph: "B", Ts: start, Pid: pid, Tid: tid},
		refTraceEvent{Name: name, Ph: "E", Ts: end, Pid: pid, Tid: tid, Args: args})
}

func (b *refBuilder) AddInstant(pid, tid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, refTraceEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, Args: args})
}

func (b *refBuilder) AddRecorder(pid, tid int, name string, r *refRecorder) {
	r.Finish()
	b.AddThreadName(pid, tid, name)
	var c machine.CounterSet
	for i := range r.spans {
		sp := &r.spans[i]
		start, end := r.bounds[sp.start], r.bounds[sp.end]
		b.events = append(b.events, refTraceEvent{Name: sp.name, Ph: "B", Ts: float64(start.clock), Pid: pid, Tid: tid})
		b.events = append(b.events, refTraceEvent{
			Name: sp.name, Ph: "E", Ts: float64(end.clock), Pid: pid, Tid: tid,
			Args: refSpanArgs(r.counters(&c, sp.start, sp.end)),
		})
	}
	for i, bd := range r.bounds {
		c.SetRow(r.row(int32(i)))
		for k, ifc := range c.Iface {
			b.AddCounter(pid, name+" "+r.led.Between()[k], float64(bd.clock), map[string]any{
				"loadWords":  ifc.LoadWords,
				"storeWords": ifc.StoreWords,
			})
		}
		b.AddCounter(pid, name+" flops", float64(bd.clock), map[string]any{"flops": c.FlopCount})
	}
}

func refSpanArgs(d *machine.CounterSet) map[string]any {
	args := map[string]any{"flops": d.FlopCount}
	for i, ifc := range d.Iface {
		args[fmt.Sprintf("if%d.loadWords", i)] = ifc.LoadWords
		args[fmt.Sprintf("if%d.storeWords", i)] = ifc.StoreWords
	}
	return args
}

func (b *refBuilder) Write(w io.Writer) error {
	f := struct {
		TraceEvents     []refTraceEvent   `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData,omitempty"`
	}{b.events, "ms", map[string]string{"generator": "writeavoid/profile"}}
	if f.TraceEvents == nil {
		f.TraceEvents = []refTraceEvent{}
	}
	return json.NewEncoder(w).Encode(f)
}

// refGroup is one processor group of reference recorders, by rank.
type refGroup struct {
	name string
	recs []*refRecorder
}

// refWriteTrace and refSummary are Profiler.WriteTrace and Summary over
// reference recorders.
func refWriteTrace(main *refRecorder, groups []refGroup) []byte {
	b := &refBuilder{}
	b.AddRecorder(0, 0, "main", main)
	for i, g := range groups {
		b.AddProcessName(i+1, g.name)
		for rank, r := range g.recs {
			b.AddRecorder(i+1, rank, fmt.Sprintf("p%d", rank), r)
		}
	}
	var out bytes.Buffer
	if err := b.Write(&out); err != nil {
		panic(err)
	}
	return out.Bytes()
}

func refSummary(m *refRecorder, groups []refGroup) string {
	var b strings.Builder
	var d machine.CounterSet
	fmt.Fprintf(&b, "%-40s %12s %12s %12s\n", "span", "loadWords", "storeWords", "flops")
	m.Finish()
	for i := range m.spans {
		sp := &m.spans[i]
		m.counters(&d, sp.start, sp.end)
		top := topIface(&d)
		name := strings.Repeat("  ", int(sp.depth)) + sp.name
		fmt.Fprintf(&b, "%-40s %12d %12d %12d\n", clip(name, 40), top.LoadWords, top.StoreWords, d.FlopCount)
	}
	for _, g := range groups {
		var spans int
		var stores int64
		for _, r := range g.recs {
			r.Finish()
			for i := range r.spans {
				sp := &r.spans[i]
				spans++
				stores += topIface(r.counters(&d, sp.start, sp.end)).StoreWords
			}
		}
		fmt.Fprintf(&b, "%-40s %12s %12d %12s  (%d procs, %d spans)\n",
			clip("group "+g.name, 40), "-", stores, "-", len(g.recs), spans)
	}
	return b.String()
}

// spanPair is one recorder under test and its reference, on two ledgers
// attached to the same hierarchies.
type spanPair struct {
	got *SpanRecorder
	ref *refRecorder
}

// spanNames need JSON escaping in part, so the trace comparison covers the
// encoder's string path.
var spanNames = []string{"panel", "update", "C[0,1]", "a<b&c>", "line sep", "bad\xffutf8", "tab\there", `q"\`}

// spanProgram drives one random run into a pair: hierarchies of growing
// depth (levels from 2 up to maxLevels, so rows of seven or more levels
// overflow the mask when maxLevels allows), every primitive, spans opened
// on a hierarchy or directly, and marks.
func spanProgram(rng *rand.Rand, p spanPair, steps, maxLevels int) {
	var hs []*machine.Hierarchy
	var cur *machine.Hierarchy
	var open []bool // open spans, innermost last: true when opened directly
	switchTo := func() {
		if cur != nil {
			cur.Flush()
		}
		if len(hs) == 0 || rng.Intn(4) == 0 {
			levels := min(2+rng.Intn(2)+len(hs), maxLevels)
			h := machine.New(false, machine.GenericLevels(levels)...)
			h.SetBatchCapacity(1 + rng.Intn(64))
			h.Attach(p.got.Ledger())
			h.Attach(p.ref.led)
			hs = append(hs, h)
			cur = h
			return
		}
		cur = hs[rng.Intn(len(hs))]
	}
	direct := func(f func(*SpanRecorder), g func(*refRecorder)) {
		cur.Flush()
		f(p.got)
		g(p.ref)
	}
	switchTo()
	for i := 0; i < steps; i++ {
		h := cur
		levels := h.NumLevels()
		words := int64(1 + rng.Intn(64))
		switch k := rng.Intn(24); {
		case k < 4:
			if rng.Intn(4) == 0 {
				h.LoadRemote(rng.Intn(levels-1), words)
			} else {
				h.Load(rng.Intn(levels-1), words)
			}
		case k < 7:
			if rng.Intn(4) == 0 {
				h.StoreRemote(rng.Intn(levels-1), words)
			} else {
				h.Store(rng.Intn(levels-1), words)
			}
		case k < 8:
			h.Init(rng.Intn(levels), words)
		case k < 9:
			h.Discard(rng.Intn(levels), words)
		case k < 13:
			h.Flops(words)
		case k < 17:
			h.Begin(spanNames[rng.Intn(len(spanNames))])
			open = append(open, false)
		case k < 21:
			if n := len(open) - 1; n >= 0 {
				if open[n] {
					direct((*SpanRecorder).End, (*refRecorder).End)
				} else {
					h.End()
				}
				open = open[:n]
			}
		case k < 22:
			switchTo()
		case k < 23:
			name := spanNames[rng.Intn(len(spanNames))]
			direct(func(r *SpanRecorder) { r.Begin(name) }, func(r *refRecorder) { r.Begin(name) })
			open = append(open, true)
		default:
			if len(open) == 0 && rng.Intn(3) == 0 {
				name := spanNames[rng.Intn(len(spanNames))]
				direct(func(r *SpanRecorder) { r.Mark(name) }, func(r *refRecorder) { r.Mark(name) })
				open = append(open, true)
			}
		}
	}
	for _, h := range hs {
		h.Flush()
	}
}

// renderSpans renders a forest canonically: every span's clocks and delta.
func renderSpans(roots []*Span) string {
	var b strings.Builder
	for _, r := range roots {
		r.Walk(func(s *Span, depth int) {
			d, _ := json.Marshal(s.Delta)
			fmt.Fprintf(&b, "%s%q [%d,%d] %s\n", strings.Repeat("  ", depth), s.Name, s.Start, s.End, d)
		})
	}
	return b.String()
}

// checkRowLog checks the log's shape: a whole row exactly at every
// wholeEvery-th boundary, at every width change and for every row wider
// than the mask; every other entry a mask of exactly the fields that moved
// (so no whole row and no mask bit is spent on a field that did not move),
// and every row as the reference logged it.
func checkRowLog(t *testing.T, what string, got *SpanRecorder, ref *refRecorder) {
	t.Helper()
	if len(got.bounds) != len(ref.bounds) {
		t.Fatalf("%s: %d boundaries, reference %d", what, len(got.bounds), len(ref.bounds))
	}
	var row []int64
	for b := range got.bounds {
		bd, rb := got.bounds[b], ref.bounds[b]
		if bd.clock != rb.clock || bd.n != rb.n {
			t.Fatalf("%s: boundary %d clock/width %d/%d, reference %d/%d", what, b, bd.clock, bd.n, rb.clock, rb.n)
		}
		want := ref.row(int32(b))
		whole := b%wholeEvery == 0 || bd.n > maxMaskFields || bd.n != ref.bounds[b-1].n
		if bd.whole != whole {
			t.Fatalf("%s: boundary %d of width %d logged whole=%v, want %v", what, b, bd.n, bd.whole, whole)
		}
		if !whole {
			var moved uint64
			prev := ref.row(int32(b - 1))
			for i := range want {
				if want[i] != prev[i] {
					moved |= 1 << i
				}
			}
			if mask := uint64(got.log[bd.chunk][bd.off]); mask != moved {
				t.Fatalf("%s: boundary %d mask %b, moved fields %b", what, b, mask, moved)
			}
		}
		row = got.step(row, int32(b))
		if fmt.Sprint(row) != fmt.Sprint(want) {
			t.Fatalf("%s: boundary %d decoded in order as %v, reference %v", what, b, row, want)
		}
		if r := got.row(nil, int32(b)); fmt.Sprint(r) != fmt.Sprint(want) {
			t.Fatalf("%s: boundary %d rebuilt as %v, reference %v", what, b, r, want)
		}
	}
}

// runSpanRows runs one random profile — a main tree and two groups of
// rank trees — beside its reference and compares everything read from it.
func runSpanRows(t *testing.T, seed int64, steps, maxLevels int) {
	rng := rand.New(rand.NewSource(seed))
	prof := NewProfiler(machine.GenericLevels(2))
	main := spanPair{prof.Main, newRefRecorder(machine.NewLedger(machine.GenericLevels(2)))}
	pairs := []spanPair{main}
	var groups []refGroup
	for g := 0; g < 2; g++ {
		pg := prof.Group(fmt.Sprint("g", g))
		rg := refGroup{name: pg.Name}
		for rank, n := 0, 1+rng.Intn(3); rank < n; rank++ {
			l := machine.NewLedger(nil)
			pg.Follow(rank, l)
			p := spanPair{pg.Proc(rank), newRefRecorder(machine.NewLedger(nil))}
			rg.recs = append(rg.recs, p.ref)
			pairs = append(pairs, p)
		}
		groups = append(groups, rg)
	}
	for i, p := range pairs {
		spanProgram(rng, p, steps/(1+i%2), maxLevels)
		if rng.Intn(2) == 0 {
			// Read mid-run, spans still open, so incremental
			// materialization is compared too.
			if a, b := renderSpans(p.got.Roots()), renderSpans(p.ref.Roots()); a != b {
				t.Fatalf("recorder %d: open forest diverges:\ngot:\n%s\nreference:\n%s", i, a, b)
			}
			spanProgram(rng, p, steps/4, maxLevels)
		}
	}
	for i, p := range pairs {
		p.got.Finish()
		p.ref.Finish()
		what := fmt.Sprint("recorder ", i)
		checkRowLog(t, what, p.got, p.ref)
		if a, b := renderSpans(p.got.Roots()), renderSpans(p.ref.Roots()); a != b {
			t.Fatalf("%s: forest diverges:\ngot:\n%s\nreference:\n%s", what, a, b)
		}
		a, _ := json.Marshal(p.got.Unattributed())
		b, _ := json.Marshal(p.ref.Unattributed())
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: unattributed %s, reference %s", what, a, b)
		}
	}
	if a, b := prof.Summary(), refSummary(main.ref, groups); a != b {
		t.Fatalf("summary diverges:\ngot:\n%s\nreference:\n%s", a, b)
	}
	var trace bytes.Buffer
	if err := prof.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if want := refWriteTrace(main.ref, groups); !bytes.Equal(trace.Bytes(), want) {
		t.Fatalf("trace diverges:\ngot:       %.2000s\nreference: %.2000s", trace.Bytes(), want)
	}
}

// The masked row log against the full-row reference, over random programs
// on 2 to 8 levels with the geometry growing mid-run: short programs and
// programs of hundreds of boundaries (several whole-row checkpoints), and
// rows of seven and eight levels, too wide for the mask.
func TestSpanRowsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		steps := []int{40, 400, 2000}[seed%3]
		maxLevels := 2 + int(seed%7)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSpanRows(t, seed, steps, maxLevels) })
	}
}

func FuzzSpanRowsMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3))
	f.Add(int64(2), uint16(2000), uint8(8))
	f.Add(int64(3), uint16(50), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, maxLevels uint8) {
		runSpanRows(t, seed, int(steps%2000), 2+int(maxLevels%7))
	})
}

// The builder's own encoder against encoding/json over the same calls:
// metadata names, raw spans, counters and instants with map arguments (nil,
// empty, nested), recorders, names that need escaping and timestamps in
// every float format encoding/json distinguishes.
func TestTraceBuilderMatchesEncodingJSON(t *testing.T) {
	stamps := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 1e20, 0.5, 1.0 / 3, 123456789.125, -2.5, 5e-324, math.MaxFloat64, -1e-9}
	names := append([]string{"", "<>&", "\u2029", "\x00\x1f\x7f", "é✓"}, spanNames...)
	args := func(rng *rand.Rand) map[string]any {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return map[string]any{}
		case 2:
			return map[string]any{"hits": rng.Int63(), "name": names[rng.Intn(len(names))], "z": 0.25}
		case 3:
			return map[string]any{"nested": map[string]any{"b": []int{1, 2}, "a": true}, "<key>": nil}
		}
		return map[string]any{"reason": names[rng.Intn(len(names))]}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := NewTraceBuilder(), &refBuilder{}
		for i := 0; i < 200; i++ {
			pid, tid := rng.Intn(4), rng.Intn(4)-1
			name := names[rng.Intn(len(names))]
			ts, ts2 := stamps[rng.Intn(len(stamps))], stamps[rng.Intn(len(stamps))]
			switch rng.Intn(6) {
			case 0:
				got.AddProcessName(pid, name)
				ref.AddProcessName(pid, name)
			case 1:
				got.AddThreadName(pid, tid, name)
				ref.AddThreadName(pid, tid, name)
			case 2:
				a := args(rng)
				got.AddSpan(pid, tid, name, ts, ts2, a)
				ref.AddSpan(pid, tid, name, ts, ts2, a)
			case 3:
				a := args(rng)
				got.AddCounter(pid, name, ts, a)
				ref.AddCounter(pid, name, ts, a)
			case 4:
				a := args(rng)
				got.AddInstant(pid, tid, name, ts, a)
				ref.AddInstant(pid, tid, name, ts, a)
			default:
				p := spanPair{NewSpanRecorder(nil), newRefRecorder(machine.NewLedger(nil))}
				spanProgram(rng, p, rng.Intn(300), 2+rng.Intn(7))
				got.AddRecorder(pid, tid, name, p.got)
				ref.AddRecorder(pid, tid, name, p.ref)
			}
		}
		var a, b bytes.Buffer
		if err := got.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := ref.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: trace diverges:\ngot:       %.3000s\nreference: %.3000s", seed, a.Bytes(), b.Bytes())
		}
	}
	var a, b bytes.Buffer
	if err := NewTraceBuilder().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := (&refBuilder{}).Write(&b); err != nil || a.String() != b.String() {
		t.Fatalf("empty trace %q, reference %q (%v)", a.String(), b.String(), err)
	}
	bad := NewTraceBuilder()
	bad.AddCounter(0, "c", math.NaN(), nil)
	if err := bad.Write(io.Discard); err == nil {
		t.Fatal("a NaN timestamp encoded without error")
	}
}

// Every byte and the runes encoding/json treats specially quote the same.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var ss []string
	for c := 0; c < 256; c++ {
		ss = append(ss, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b")
	}
	ss = append(ss, "\u2028\u2029", "\ufffd", "\xe2\x80", "\xed\xa0\x80", "日本語<&>", strings.Repeat("x", 100))
	for _, s := range ss {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q quoted as %s, encoding/json %s", s, got, want)
		}
	}
}
