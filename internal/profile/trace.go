package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// This file renders span trees and counter samples as Chrome trace-event
// JSON (the object form: {"traceEvents": [...]}), the format Perfetto and
// chrome://tracing open directly. Spans become B/E duration events, the
// per-interface cumulative counters become C counter tracks, and each
// processor of a distributed run becomes its own pid/tid pair.
//
// Timestamps are microseconds, as the format requires. Recorders export the
// deterministic event-count clock, one event = 1µs, which keeps traces of
// counted (not timed) simulations reproducible bit for bit.
//
// Write encodes every event itself, in exactly the bytes encoding/json
// writes for the event list as a struct slice with map arguments (keys
// sorted, its float format, its HTML-safe string escaping), without walking
// a map by reflection per event. A recorder added with AddRecorder is kept
// as a reference to its boundary log and rendered from the log at Write, so
// its events and counter samples cost nothing until they are written; map
// arguments passed to AddSpan, AddCounter and AddInstant go through
// encoding/json.

// traceEvent is one element of the traceEvents array: meta is a metadata
// event's "name" argument, args a caller's arguments (omitted when empty).
type traceEvent struct {
	name     string
	ph       byte
	ts       float64
	pid, tid int
	meta     string
	args     map[string]any
}

// recorderTrack is one AddRecorder call: the recorder's spans and
// boundaries as far as they reached then, rendered before events[at].
type recorderTrack struct {
	r             *SpanRecorder
	pid, tid      int
	name          string
	spans, bounds int32
	at            int
}

// TraceBuilder accumulates trace events; zero-cost until Write.
type TraceBuilder struct {
	events []traceEvent
	tracks []recorderTrack

	rows     rowScratch  // Write's scratch, shared across recorders
	spanKeys [][]spanKey // spanKeys[n]: keys(n), built once per width
}

// spanKey is one interface key of a span's args, quoted with its colon,
// and its value's index: 2i for interface i's loadWords, 2i+1 for its
// storeWords.
type spanKey struct {
	key string
	val int
}

// NewTraceBuilder returns an empty builder.
func NewTraceBuilder() *TraceBuilder { return &TraceBuilder{} }

// AddProcessName emits the metadata event naming pid in the viewer.
func (b *TraceBuilder) AddProcessName(pid int, name string) {
	b.events = append(b.events, traceEvent{name: "process_name", ph: 'M', pid: pid, meta: name})
}

// AddThreadName emits the metadata event naming (pid, tid).
func (b *TraceBuilder) AddThreadName(pid, tid int, name string) {
	b.events = append(b.events, traceEvent{name: "thread_name", ph: 'M', pid: pid, tid: tid, meta: name})
}

// AddCounter emits one sample of a C counter track. Chrome scopes counter
// tracks by (pid, name); successive samples draw the trajectory.
func (b *TraceBuilder) AddCounter(pid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, traceEvent{name: name, ph: 'C', ts: ts, pid: pid, args: args})
}

// AddSpan emits one raw B/E duration pair, for callers composing traces
// without a SpanRecorder (the watrace replay exporter).
func (b *TraceBuilder) AddSpan(pid, tid int, name string, start, end float64, args map[string]any) {
	b.events = append(b.events,
		traceEvent{name: name, ph: 'B', ts: start, pid: pid, tid: tid},
		traceEvent{name: name, ph: 'E', ts: end, pid: pid, tid: tid, args: args})
}

// AddInstant emits one instant event ("i" phase): a point marker in the
// timeline, used by the flight-recorder export to pin a violation's capture
// moment onto the reconstructed window.
func (b *TraceBuilder) AddInstant(pid, tid int, name string, ts float64, args map[string]any) {
	b.events = append(b.events, traceEvent{name: name, ph: 'i', ts: ts, pid: pid, tid: tid, args: args})
}

// AddRecorder renders one SpanRecorder as thread (pid, tid): its span tree
// as B/E events and one counter track per interface from the recorder's
// boundary rows. Open spans are closed first (Finish). The track name
// labels the thread and prefixes the counter tracks so ranks of one
// process group stay distinguishable. Write renders the events from the
// recorder's boundary log as it stands now (what the recorder logs later
// is not written), decoding the rows in order for the counter tracks, and
// builds no span tree.
func (b *TraceBuilder) AddRecorder(pid, tid int, name string, r *SpanRecorder) {
	r.Finish()
	b.AddThreadName(pid, tid, name)
	b.tracks = append(b.tracks, recorderTrack{
		r: r, pid: pid, tid: tid, name: name,
		spans: r.spans.len(), bounds: r.bounds.len(), at: len(b.events),
	})
}

// traceWriter is Write's output: one buffer of about 64 KiB, written out
// whenever it fills, and the first error.
type traceWriter struct {
	w   io.Writer
	buf []byte
	n   int // events begun
	err error
}

// begin starts an event object with its name, phase, ts, pid and tid.
func (t *traceWriter) begin(name string, ph byte, ts float64, pid, tid int) {
	if t.n > 0 {
		t.buf = append(t.buf, ',')
	}
	t.n++
	if math.IsInf(ts, 0) || math.IsNaN(ts) {
		t.fail(fmt.Errorf("profile: trace event %q: unsupported ts %v", name, ts))
	}
	t.buf = append(t.buf, `{"name":`...)
	t.buf = appendString(t.buf, name)
	t.buf = append(t.buf, `,"ph":"`...)
	t.buf = append(t.buf, ph)
	t.buf = append(t.buf, `","ts":`...)
	t.buf = appendFloat(t.buf, ts)
	t.buf = append(t.buf, `,"pid":`...)
	t.buf = strconv.AppendInt(t.buf, int64(pid), 10)
	t.buf = append(t.buf, `,"tid":`...)
	t.buf = strconv.AppendInt(t.buf, int64(tid), 10)
}

// arg appends one integer argument: the first opens the args object.
func (t *traceWriter) arg(first bool, key string, v int64) {
	if first {
		t.buf = append(t.buf, `,"args":{`...)
	} else {
		t.buf = append(t.buf, ',')
	}
	t.buf = append(t.buf, key...)
	t.buf = strconv.AppendInt(t.buf, v, 10)
}

// end closes an event object (and its args object when it has one), then
// writes the buffer out if it is full.
func (t *traceWriter) end(args bool) {
	if args {
		t.buf = append(t.buf, '}')
	}
	t.buf = append(t.buf, '}')
	if len(t.buf) >= 1<<16 {
		t.flush()
	}
}

func (t *traceWriter) flush() {
	if t.err == nil {
		_, t.err = t.w.Write(t.buf)
	}
	t.buf = t.buf[:0]
}

func (t *traceWriter) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Write serializes the accumulated events in the object form, in the bytes
// encoding/json's Encoder writes for them, through a buffer of about 64 KiB.
// An event it cannot encode (a non-finite ts, a map argument encoding/json
// rejects) fails it, possibly after part of the trace went out.
func (b *TraceBuilder) Write(w io.Writer) error {
	t := &traceWriter{w: w, buf: make([]byte, 0, 1<<16+1<<10)}
	t.buf = append(t.buf, `{"traceEvents":[`...)
	tracks := b.tracks
	for i := range b.events {
		for len(tracks) > 0 && tracks[0].at == i {
			b.writeRecorder(t, &tracks[0])
			tracks = tracks[1:]
		}
		e := &b.events[i]
		t.begin(e.name, e.ph, e.ts, e.pid, e.tid)
		switch {
		case e.ph == 'M':
			t.buf = append(t.buf, `,"args":{"name":`...)
			t.buf = appendString(t.buf, e.meta)
			t.end(true)
		case len(e.args) > 0:
			m, err := json.Marshal(e.args)
			if err != nil {
				t.fail(err)
			}
			t.buf = append(t.buf, `,"args":`...)
			t.buf = append(t.buf, m...)
			t.end(false)
		default:
			t.end(false)
		}
		if t.err != nil {
			return t.err
		}
	}
	for i := range tracks {
		b.writeRecorder(t, &tracks[i])
	}
	t.buf = append(t.buf, `],"displayTimeUnit":"ms","otherData":{"generator":"writeavoid/profile"}}`+"\n"...)
	t.flush()
	return t.err
}

// writeRecorder writes one recorder's events: a B/E pair per span, in open
// order, the E event's args the span's flops and per-interface words; then,
// at every boundary, one sample per
// interface track and one of the flops track.
func (b *TraceBuilder) writeRecorder(t *traceWriter, tr *recorderTrack) {
	r, s := tr.r, &b.rows
	for i := int32(0); i < tr.spans; i++ {
		sp := r.spans.at(i)
		t.begin(sp.name, 'B', float64(r.bounds.at(sp.start).clock), tr.pid, tr.tid)
		t.end(false)
		d := r.counters(s, sp.start, sp.end)
		t.begin(sp.name, 'E', float64(r.bounds.at(sp.end).clock), tr.pid, tr.tid)
		t.arg(true, `"flops":`, d.FlopCount)
		for _, k := range b.keys(len(d.Iface)) {
			ifc := &d.Iface[k.val/2]
			v := ifc.LoadWords
			if k.val%2 == 1 {
				v = ifc.StoreWords
			}
			t.arg(false, k.key, v)
		}
		t.end(true)
	}
	// One counter track per interface, sampled at every span boundary.
	var tracks []string
	flops := tr.name + " flops"
	c := &s.delta
	row := s.hi[:0]
	for i := int32(0); i < tr.bounds; i++ {
		row = r.step(row, i)
		c.SetRow(row)
		ts := float64(r.bounds.at(i).clock)
		for k := len(tracks); k < len(c.Iface); k++ {
			tracks = append(tracks, tr.name+" "+r.led.Between()[k])
		}
		for k, ifc := range c.Iface {
			t.begin(tracks[k], 'C', ts, tr.pid, 0)
			t.arg(true, `"loadWords":`, ifc.LoadWords)
			t.arg(false, `"storeWords":`, ifc.StoreWords)
			t.end(true)
		}
		t.begin(flops, 'C', ts, tr.pid, 0)
		t.arg(true, `"flops":`, c.FlopCount)
		t.end(true)
	}
	s.hi = row
}

// keys returns the interface keys of an n-interface span delta in the
// order encoding/json writes a map's keys: sorted.
func (b *TraceBuilder) keys(n int) []spanKey {
	for len(b.spanKeys) <= n {
		m := len(b.spanKeys)
		ks := make([]spanKey, 0, 2*m)
		for i := 0; i < m; i++ {
			ks = append(ks,
				spanKey{fmt.Sprintf(`"if%d.loadWords":`, i), 2 * i},
				spanKey{fmt.Sprintf(`"if%d.storeWords":`, i), 2*i + 1})
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		b.spanKeys = append(b.spanKeys, ks)
	}
	return b.spanKeys[n]
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped.
func appendFloat(out []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	out = strconv.AppendFloat(out, f, format, -1, 64)
	if format == 'e' {
		if n := len(out); n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
	}
	return out
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string: the
// HTML-sensitive <, > and & and the control bytes escaped, invalid UTF-8
// replaced by U+FFFD, and U+2028 and U+2029 escaped.
func appendString(out []byte, s string) []byte {
	out = append(out, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			out = append(out, s[start:i]...)
			switch c {
			case '\\', '"':
				out = append(out, '\\', c)
			case '\b':
				out = append(out, '\\', 'b')
			case '\f':
				out = append(out, '\\', 'f')
			case '\n':
				out = append(out, '\\', 'n')
			case '\r':
				out = append(out, '\\', 'r')
			case '\t':
				out = append(out, '\\', 't')
			default:
				out = append(out, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			out = append(out, s[start:i]...)
			out = append(out, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			out = append(out, s[start:i]...)
			out = append(out, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	out = append(out, s[start:]...)
	return append(out, '"')
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
