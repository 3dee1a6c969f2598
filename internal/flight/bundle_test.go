package flight_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/pmm"
	"writeavoid/internal/profile"
)

var update = flag.Bool("update", false, "rewrite the golden bundle")

// testBundle builds a fully deterministic bundle: a violation over a
// mid-span capture of a counted hierarchy, plus two rank windows from a
// flight.Group driven directly.
func testBundle() *flight.Bundle {
	h := machine.New(false, machine.GenericLevels(3)...)
	fr := flight.New(8, nil)
	h.Attach(fr.Ledger())
	fr.Phase("setup")
	h.Begin("step 0")
	h.Load(0, 64)
	h.Load(1, 24)
	h.Store(0, 32)
	h.Flops(16)
	h.End()
	fr.Phase("multiply")
	h.Begin("step 1")
	h.Load(1, 8)
	h.Store(1, 4)
	w := fr.Capture("violation") // mid-span: stack ["step 1"], ring wrapped

	g := flight.NewGroup("mm", 8, nil)
	for rank := 0; rank < 2; rank++ {
		rec := g.Recorder(rank)
		rec.Record([]machine.Event{{Kind: machine.EvBegin, Label: "step 1"}})
		rec.Record([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: int64(10 + rank)}})
		rec.Record([]machine.Event{{Kind: machine.EvEnd}})
	}

	return &flight.Bundle{
		Reason:     "violation",
		CapturedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Violation: &flight.ViolationInfo{
			ID:       1,
			Check:    "wa-output-floor",
			Kernel:   "multiply",
			Expected: 4096,
			Observed: 1024,
			Slack:    1,
			Detail:   "interface 1 store words",
		},
		Window: w,
		Ranks:  g.Windows("violation"),
	}
}

// The bundle's JSON form is pinned by a golden file and survives a
// round-trip bit for bit — the dump format is a stable artifact, not an
// implementation detail.
func TestBundleJSONGoldenRoundTrip(t *testing.T) {
	b := testBundle()
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "bundle.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate: go test ./internal/flight -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bundle JSON drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	var back flight.Bundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("bundle JSON does not round-trip:\nfirst:\n%s\nsecond:\n%s", buf.Bytes(), again.Bytes())
	}
}

// Windows carry their structural truth through serialization: the drop
// count, the span stack, and the superstep correlation label.
func TestBundleWindowSemantics(t *testing.T) {
	b := testBundle()
	if b.Window.Dropped <= 0 {
		t.Fatalf("8-slot ring over a longer run should drop events, Dropped = %d", b.Window.Dropped)
	}
	if len(b.Window.SpanStack) != 1 || b.Window.SpanStack[0] != "step 1" {
		t.Fatalf("mid-span capture stack = %v", b.Window.SpanStack)
	}
	if got, ok := b.Window.Superstep(); !ok || got != "step 1" {
		t.Fatalf("Superstep() = %q, %v", got, ok)
	}
	if len(b.Ranks) != 2 {
		t.Fatalf("want 2 rank windows, got %d", len(b.Ranks))
	}
	for _, rw := range b.Ranks {
		if rw.Run != "mm" {
			t.Fatalf("rank %d Run = %q", rw.Rank, rw.Run)
		}
		if rw.Superstep != "step 1" {
			t.Fatalf("rank %d superstep = %q", rw.Rank, rw.Superstep)
		}
	}
}

// Every bundle's Perfetto export validates: balanced spans even when the
// window's tail truncates a Begin or holds spans still open at capture.
func TestWriteTraceValidates(t *testing.T) {
	b := testBundle()

	// Make the truncation case explicit: a ring so small the Begin of the
	// final span was overwritten, leaving a bare End plus an open span.
	fr := flight.New(4, nil)
	fr.Ledger().Record([]machine.Event{{Kind: machine.EvBegin, Label: "lost"}})
	for i := 0; i < 6; i++ {
		fr.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 1}})
	}
	fr.Ledger().Record([]machine.Event{{Kind: machine.EvEnd}})
	fr.Ledger().Record([]machine.Event{{Kind: machine.EvBegin, Label: "open"}})
	fr.Ledger().Record([]machine.Event{{Kind: machine.EvStore, Arg: 0, Words: 2}})
	b.Ranks = append(b.Ranks, flight.RankWindow{Run: "torn", Rank: 0, Window: fr.Peek("violation")})

	var buf bytes.Buffer
	if err := b.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := profile.ValidateTraceEvent(buf.Bytes())
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, buf.Bytes())
	}
	if info.Spans < 4 {
		t.Fatalf("expected at least 4 spans (main + ranks + torn pair), got %d", info.Spans)
	}
	if len(info.Pids) < 3 {
		t.Fatalf("expected main pid + two run pids, got %v", info.Pids)
	}
}

// An empty window (a rank that never recorded) still exports a valid trace.
func TestWriteTraceEmptyWindow(t *testing.T) {
	fr := flight.New(8, nil)
	b := &flight.Bundle{
		Reason:     "manual",
		CapturedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Window:     fr.Peek("manual"),
	}
	var buf bytes.Buffer
	if err := b.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.ValidateTraceEvent(buf.Bytes()); err != nil {
		t.Fatalf("empty-window trace does not validate: %v", err)
	}
}

// The dist correlation invariant: per-rank flight recorders observing a real
// 2.5D multiply all report the same superstep label — every rank's ring,
// frozen after the run, ends in the same barrier generation.
func TestDistSuperstepCorrelation(t *testing.T) {
	const q = 2
	n := 8 * q
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	g := flight.NewGroup("mm25d", 1<<16, nil)
	cfg := pmm.Config{Q: q, C: 1, M1: 48, B1: 4, M2: 4096, Observe: g.Recorder}
	got, _, err := pmm.MM25D(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, matrix.Mul(a, b)); d > 1e-10 {
		t.Fatalf("multiply wrong by %g", d)
	}

	ranks := g.Windows("test")
	if len(ranks) != q*q {
		t.Fatalf("want %d rank windows, got %d", q*q, len(ranks))
	}
	for _, rw := range ranks {
		if rw.Window.Dropped != 0 {
			t.Fatalf("ring sized to hold the whole run, but rank %d dropped %d", rw.Rank, rw.Window.Dropped)
		}
		if rw.Superstep != "step 1" {
			t.Fatalf("rank %d ends in superstep %q, want %q (Q=%d runs steps 0..%d)",
				rw.Rank, rw.Superstep, "step 1", q, q-1)
		}
	}
}
