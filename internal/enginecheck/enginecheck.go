// Package enginecheck is the differential harness for the batched event
// engine: it runs the same kernel under the reference engine (batch
// capacity 1: every event is delivered on its own, as a one-element block)
// and under the batched engine (default capacity), and requires every
// observable — the raw event sequence, counter snapshots, the JSONL byte
// stream of a StreamRecorder, the full span tree of a profile.SpanRecorder —
// to be bit-identical. Batching is allowed to change when events are
// delivered, never which events, their order, or any derived number.
package enginecheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"writeavoid/internal/machine"
	"writeavoid/internal/profile"
)

// capture records the raw delivered event sequence, marks included.
type capture struct {
	events []machine.Event
}

func (c *capture) Record(events []machine.Event) { c.events = append(c.events, events...) }

// Result is everything one engine run exposes to comparison.
type Result struct {
	// Events is the full delivered sequence, marks included.
	Events []machine.Event
	// Stream is the JSONL bytes a StreamRecorder (every=7) emitted.
	Stream []byte
	// Spans is the canonical rendering of the span forest.
	Spans string
	// Counters is the canonical JSON of the hierarchy's own snapshot.
	Counters string
	// StreamCum is the canonical JSON of the stream's cumulative snapshot.
	StreamCum string
}

// streamEvery is deliberately prime and far below the default batch capacity
// so record boundaries land mid-block and exercise the cadence pin.
const streamEvery = 7

// Run executes drive against a fresh non-strict hierarchy with the given
// levels and the full recorder complement attached (the capture, the
// stream's ledger and the span tree's ledger), under the reference engine
// (ref=true: capacity 1) or the batched engine.
func Run(levels []machine.Level, ref bool, drive func(h *machine.Hierarchy)) Result {
	h := machine.New(false, levels...)
	if ref {
		h.SetBatchCapacity(1)
	}
	cap := &capture{}
	var buf bytes.Buffer
	stream := machine.NewStreamRecorder(&buf, levels, streamEvery)
	spans := profile.NewSpanRecorder(levels)
	h.Attach(cap)
	h.Attach(stream.Ledger())
	h.Attach(spans.Ledger())

	drive(h)
	h.Flush()
	spans.Finish()
	streamCum := canonJSON(stream.Snapshot())
	if err := stream.Close(); err != nil {
		panic(fmt.Sprintf("enginecheck: stream close: %v", err))
	}

	return Result{
		Events:    cap.events,
		Stream:    buf.Bytes(),
		Spans:     renderSpans(spans.Roots()),
		Counters:  canonJSON(h.Snapshot()),
		StreamCum: streamCum,
	}
}

// Diff compares two results field by field and returns a description of the
// first divergence, or "" when they agree bit for bit.
func Diff(ref, got Result) string {
	if len(ref.Events) != len(got.Events) {
		return fmt.Sprintf("event count: reference %d, batched %d", len(ref.Events), len(got.Events))
	}
	for i := range ref.Events {
		if ref.Events[i] != got.Events[i] {
			return fmt.Sprintf("event %d: reference %+v, batched %+v", i, ref.Events[i], got.Events[i])
		}
	}
	if !bytes.Equal(ref.Stream, got.Stream) {
		return fmt.Sprintf("stream bytes diverge:\nreference:\n%s\nbatched:\n%s", ref.Stream, got.Stream)
	}
	if ref.Spans != got.Spans {
		return fmt.Sprintf("span trees diverge:\nreference:\n%s\nbatched:\n%s", ref.Spans, got.Spans)
	}
	if ref.Counters != got.Counters {
		return fmt.Sprintf("hierarchy snapshots diverge:\nreference: %s\nbatched: %s", ref.Counters, got.Counters)
	}
	if ref.StreamCum != got.StreamCum {
		return fmt.Sprintf("stream cumulative snapshots diverge:\nreference: %s\nbatched: %s", ref.StreamCum, got.StreamCum)
	}
	return ""
}

// renderSpans serializes a span forest canonically: depth-first, one line per
// span with its name, clock boundaries, and full delta snapshot.
func renderSpans(roots []*profile.Span) string {
	var b strings.Builder
	var walk func(s *profile.Span, depth int)
	walk = func(s *profile.Span, depth int) {
		fmt.Fprintf(&b, "%s%s [%d,%d] %s\n",
			strings.Repeat("  ", depth), s.Name, s.Start, s.End, canonJSON(s.Delta))
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

func canonJSON(v any) string {
	out, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("enginecheck: marshal: %v", err))
	}
	return string(out)
}
