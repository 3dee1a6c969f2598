package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"writeavoid/internal/core"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/pmm"
	"writeavoid/internal/profile"
)

func TestWriteTraceEventRoundTrip(t *testing.T) {
	rec := profile.NewSpanRecorder(machine.GenericLevels(3))
	rec.Begin("outer")
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 10}})
	rec.Begin("inner")
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 1, Words: 5}})
	rec.Ledger().Record([]machine.Event{{Kind: machine.EvFlops, Words: 100}})
	rec.End()
	rec.End()

	var buf bytes.Buffer
	if err := profile.WriteTraceEvent(&buf, rec); err != nil {
		t.Fatal(err)
	}
	info, err := profile.ValidateTraceEvent(buf.Bytes())
	if err != nil {
		t.Fatalf("exporter produced an invalid trace: %v", err)
	}
	if info.Spans != 2 {
		t.Errorf("round trip lost spans: got %d, want 2", info.Spans)
	}
	// One counter track per interface of the 3-level geometry, plus flops.
	for _, want := range []string{"t0 L0<->L1", "t0 L1<->L2", "t0 flops"} {
		found := false
		for _, name := range info.CounterTracks {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing counter track %q (have %v)", want, info.CounterTracks)
		}
	}
}

// The exporter lays out a traced sequential run as pid 0 and each
// distributed group as its own pid with one tid per rank.
func TestProfilerWriteTraceLayout(t *testing.T) {
	prof := profile.NewProfiler(machine.GenericLevels(3))
	g := prof.Group("mm25d")

	// A serial section on the main recorder...
	prof.Mark("serial")
	const b = 4
	p := core.TwoLevelPlan(int64(3*b*b), b, core.OrderWA)
	p.H.Attach(prof.Main.Ledger())
	c := matrix.New(8, 8)
	if err := core.MatMul(p, c, matrix.Random(8, 8, 1), matrix.Random(8, 8, 2)); err != nil {
		t.Fatal(err)
	}

	// ...and a distributed one observed through the group.
	cfg := pmm.Config{Q: 2, C: 1, M1: 48, B1: 4, M2: 4096, Observe: g.Recorder}
	n := 16
	if _, _, err := pmm.MM25D(cfg, matrix.Random(n, n, 3), matrix.Random(n, n, 4)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := prof.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := profile.ValidateTraceEvent(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pids) != 2 || info.Pids[0] != 0 || info.Pids[1] != 1 {
		t.Errorf("pids = %v, want [0 1] (main + one group)", info.Pids)
	}
	if info.Tids < 1+cfg.P() {
		t.Errorf("saw %d threads, want at least %d (main + %d ranks)", info.Tids, 1+cfg.P(), cfg.P())
	}
	if info.Spans < cfg.P() {
		t.Errorf("only %d spans for a %d-rank run", info.Spans, cfg.P())
	}

	// The -profile summary covers the same tree.
	sum := prof.Summary()
	for _, want := range []string{"serial", "group mm25d", "4 procs"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestTraceBuilderAddSpan(t *testing.T) {
	b := profile.NewTraceBuilder()
	b.AddProcessName(0, "replay")
	b.AddThreadName(0, 0, "t")
	b.AddSpan(0, 0, "sim", 0, 42, map[string]any{"accesses": 7})
	b.AddCounter(0, "hits", 21, map[string]any{"hits": 3})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := profile.ValidateTraceEvent(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Spans != 1 || len(info.CounterTracks) != 1 || info.CounterTracks[0] != "hits" {
		t.Errorf("unexpected structure: %+v", info)
	}
}

func TestValidateTraceEventRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"not json", `{`, "not valid JSON"},
		{"empty", `{"traceEvents":[]}`, "no traceEvents"},
		{"missing ph", `{"traceEvents":[{"name":"x","ts":0,"pid":0}]}`, "missing name or ph"},
		{"missing pid", `{"traceEvents":[{"name":"x","ph":"B","ts":0,"tid":0}]}`, "missing pid"},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"C","pid":0}]}`, "missing ts"},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0}]}`, "unknown phase"},
		{"unclosed span", `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":0,"tid":0}]}`, "unclosed"},
		{"stray end", `{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":0}]}`, "closes nothing"},
		{"mismatched nesting", `{"traceEvents":[
			{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
			{"name":"b","ph":"B","ts":1,"pid":0,"tid":0},
			{"name":"a","ph":"E","ts":2,"pid":0,"tid":0},
			{"name":"b","ph":"E","ts":3,"pid":0,"tid":0}]}`, "is open"},
	}
	for _, tc := range cases {
		_, err := profile.ValidateTraceEvent([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// Spans nested across threads stay independent: the same names may be open
// on different (pid, tid) stacks simultaneously.
func TestValidateTraceEventPerThreadStacks(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
		{"name":"a","ph":"B","ts":0,"pid":0,"tid":1},
		{"name":"a","ph":"E","ts":1,"pid":0,"tid":1},
		{"name":"a","ph":"E","ts":2,"pid":0,"tid":0}]}`
	info, err := profile.ValidateTraceEvent([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if info.Spans != 2 || info.Tids != 2 {
		t.Errorf("got %d spans on %d threads, want 2 on 2", info.Spans, info.Tids)
	}
}
