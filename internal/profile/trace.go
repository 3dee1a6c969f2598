package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"writeavoid/internal/machine"
)

// This file renders span trees and counter samples as Chrome trace-event
// JSON (the object form: {"traceEvents": [...]}), the format Perfetto and
// chrome://tracing open directly. Spans become B/E duration events, the
// per-interface cumulative counters become C counter tracks, and each
// processor of a distributed run becomes its own pid/tid pair.
//
// Timestamps are microseconds, as the format requires. A recorder with a
// cost model exports model seconds scaled to µs; otherwise the
// deterministic event-count clock is used, one event = 1µs, which keeps
// traces of counted (not timed) simulations reproducible bit for bit.

// traceEvent is one element of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level object form of the format.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// TraceBuilder accumulates trace events; zero-cost until Write.
type TraceBuilder struct {
	events []traceEvent
	// ifaceKeys[i] holds the "if<i>.loadWords" and "if<i>.storeWords" span
	// argument keys, formatted once per builder.
	ifaceKeys [][2]string
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder { return &TraceBuilder{} }

// AddProcessName emits the metadata event naming pid in the viewer.
func (b *TraceBuilder) AddProcessName(pid int, name string) {
	b.events = append(b.events, traceEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	})
}

// AddThreadName emits the metadata event naming (pid, tid).
func (b *TraceBuilder) AddThreadName(pid, tid int, name string) {
	b.events = append(b.events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// AddCounter emits one sample of a C counter track. Chrome scopes counter
// tracks by (pid, name); successive samples draw the trajectory.
func (b *TraceBuilder) AddCounter(pid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, traceEvent{Name: name, Ph: "C", Ts: ts, Pid: pid, Args: args})
}

// AddSpan emits one raw B/E duration pair, for callers composing traces
// without a SpanRecorder (the watrace replay exporter).
func (b *TraceBuilder) AddSpan(pid, tid int, name string, start, end float64, args map[string]any) {
	b.events = append(b.events,
		traceEvent{Name: name, Ph: "B", Ts: start, Pid: pid, Tid: tid},
		traceEvent{Name: name, Ph: "E", Ts: end, Pid: pid, Tid: tid, Args: args})
}

// AddInstant emits one instant event ("i" phase): a point marker in the
// timeline, used by the flight-recorder export to pin a violation's capture
// moment onto the reconstructed window.
func (b *TraceBuilder) AddInstant(pid, tid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, traceEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, Args: args})
}

// AddRecorder renders one SpanRecorder as thread (pid, tid): its span tree
// as B/E events and one counter track per interface from the recorder's
// boundary rows. Open spans are closed first (Finish). The track name
// labels the thread and prefixes the counter tracks so ranks of one
// process group stay distinguishable. It reads the recorder's boundary log
// directly and builds no span tree.
func (b *TraceBuilder) AddRecorder(pid, tid int, name string, r *SpanRecorder) {
	r.Finish()
	b.AddThreadName(pid, tid, name)
	ts := r.tsScale()
	var c machine.CounterSet
	for i := range r.spans {
		sp := &r.spans[i]
		start, end := r.bounds[sp.start], r.bounds[sp.end]
		b.events = append(b.events, traceEvent{
			Name: sp.name, Ph: "B", Ts: ts(start.clock, start.time), Pid: pid, Tid: tid,
		})
		b.events = append(b.events, traceEvent{
			Name: sp.name, Ph: "E", Ts: ts(end.clock, end.time), Pid: pid, Tid: tid,
			Args: b.spanArgs(r.counters(&c, sp.start, sp.end)),
		})
	}
	// One counter track per interface, sampled at every span boundary.
	var tracks []string
	flops := name + " flops"
	for i, bd := range r.bounds {
		c.SetRow(r.row(int32(i)))
		t := ts(bd.clock, bd.time)
		for k := len(tracks); k < len(c.Iface); k++ {
			tracks = append(tracks, name+" "+r.led.Between()[k])
		}
		for k, ifc := range c.Iface {
			b.AddCounter(pid, tracks[k], t, map[string]any{
				"loadWords":  ifc.LoadWords,
				"storeWords": ifc.StoreWords,
			})
		}
		b.AddCounter(pid, flops, t, map[string]any{"flops": c.FlopCount})
	}
}

// tsScale chooses the recorder's timestamp mapping: cost-model seconds
// scaled to µs when a model is attached, else the event clock 1:1.
func (r *SpanRecorder) tsScale() func(clock int64, t float64) float64 {
	if r.led.HasCostModel() {
		return func(_ int64, t float64) float64 { return t * 1e6 }
	}
	return func(clock int64, _ float64) float64 { return float64(clock) }
}

// spanArgs summarizes a span's counter delta for the E event's args pane.
func (b *TraceBuilder) spanArgs(d *machine.CounterSet) map[string]any {
	for i := len(b.ifaceKeys); i < len(d.Iface); i++ {
		b.ifaceKeys = append(b.ifaceKeys, [2]string{
			fmt.Sprintf("if%d.loadWords", i), fmt.Sprintf("if%d.storeWords", i),
		})
	}
	n := 1 + 2*len(d.Iface)
	touched := d.TouchReads != 0 || d.TouchWrites != 0
	if touched {
		n += 2
	}
	args := make(map[string]any, n)
	args["flops"] = d.FlopCount
	for i, ifc := range d.Iface {
		args[b.ifaceKeys[i][0]] = ifc.LoadWords
		args[b.ifaceKeys[i][1]] = ifc.StoreWords
	}
	if touched {
		args["touchReads"] = d.TouchReads
		args["touchWrites"] = d.TouchWrites
	}
	return args
}

// Write serializes the accumulated events in the object form.
func (b *TraceBuilder) Write(w io.Writer) error {
	f := traceFile{
		TraceEvents:     b.events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"generator": "writeavoid/profile"},
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteTraceEvent renders one or more span recorders as a complete Chrome
// trace: recorder i becomes pid 0 / tid i. The common single-machine case
// is WriteTraceEvent(w, rec); distributed runs go through
// Profiler.WriteTrace, which lays out pid/tid pairs per group and rank.
func WriteTraceEvent(w io.Writer, recs ...*SpanRecorder) error {
	b := NewTraceBuilder()
	b.AddProcessName(0, "machine")
	for i, r := range recs {
		b.AddRecorder(0, i, fmt.Sprintf("t%d", i), r)
	}
	return b.Write(w)
}

// TraceInfo is ValidateTraceEvent's structural summary, the quantities the
// acceptance tests and the CI check assert on.
type TraceInfo struct {
	Events        int      // total events
	Spans         int      // matched B/E pairs
	CounterTracks []string // distinct C track names, sorted
	Pids          []int    // distinct pids, sorted
	Tids          int      // distinct (pid, tid) pairs seen on B/E events
}

// ValidateTraceEvent parses data as Chrome trace-event JSON (object form)
// and checks the schema: a non-empty traceEvents array, required fields per
// phase (name and ph always; ts on everything but metadata), known phase
// letters, and balanced B/E nesting per (pid, tid) with matching names. It
// returns a structural summary for further assertions.
func ValidateTraceEvent(data []byte) (TraceInfo, error) {
	var f struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return TraceInfo{}, fmt.Errorf("profile: trace is not valid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return TraceInfo{}, fmt.Errorf("profile: trace has no traceEvents")
	}
	info := TraceInfo{Events: len(f.TraceEvents)}
	type key struct{ pid, tid int }
	stacks := map[key][]string{}
	counters := map[string]bool{}
	pids := map[int]bool{}
	tids := map[key]bool{}
	for i, e := range f.TraceEvents {
		if e.Name == nil || e.Ph == nil {
			return info, fmt.Errorf("profile: event %d missing name or ph", i)
		}
		if e.Pid == nil {
			return info, fmt.Errorf("profile: event %d (%s) missing pid", i, *e.Name)
		}
		pids[*e.Pid] = true
		switch *e.Ph {
		case "M":
			// metadata: no ts required
		case "B", "E", "C", "X", "i", "I":
			if e.Ts == nil {
				return info, fmt.Errorf("profile: event %d (%s %s) missing ts", i, *e.Ph, *e.Name)
			}
		default:
			return info, fmt.Errorf("profile: event %d has unknown phase %q", i, *e.Ph)
		}
		switch *e.Ph {
		case "B":
			if e.Tid == nil {
				return info, fmt.Errorf("profile: B event %d (%s) missing tid", i, *e.Name)
			}
			k := key{*e.Pid, *e.Tid}
			tids[k] = true
			stacks[k] = append(stacks[k], *e.Name)
		case "E":
			if e.Tid == nil {
				return info, fmt.Errorf("profile: E event %d (%s) missing tid", i, *e.Name)
			}
			k := key{*e.Pid, *e.Tid}
			tids[k] = true
			st := stacks[k]
			if len(st) == 0 {
				return info, fmt.Errorf("profile: E event %d (%s) closes nothing on pid %d tid %d", i, *e.Name, k.pid, k.tid)
			}
			if top := st[len(st)-1]; top != *e.Name {
				return info, fmt.Errorf("profile: E event %d closes %q but %q is open", i, *e.Name, top)
			}
			stacks[k] = st[:len(st)-1]
			info.Spans++
		case "C":
			counters[*e.Name] = true
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return info, fmt.Errorf("profile: pid %d tid %d ends with %d unclosed spans (%q)", k.pid, k.tid, len(st), st[len(st)-1])
		}
	}
	for name := range counters {
		info.CounterTracks = append(info.CounterTracks, name)
	}
	sort.Strings(info.CounterTracks)
	for p := range pids {
		info.Pids = append(info.Pids, p)
	}
	sort.Ints(info.Pids)
	info.Tids = len(tids)
	return info, nil
}
