package monitor

import (
	"bytes"
	"strings"
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// The writer and the validator are two halves of one contract: everything
// an exposition writes — snapshot families, per-rank and cache families,
// labels that need escaping — must round-trip through ValidateExposition.
func TestExpositionRoundTrip(t *testing.T) {
	l := machine.NewLedger(machine.GenericLevels(3))
	l.Record([]machine.Event{
		{Kind: machine.EvLoad, Arg: 0, Words: 100},
		{Kind: machine.EvStore, Arg: 1, Words: 40},
		{Kind: machine.EvFlops, Words: 7},
	})

	e := &exposition{
		snap: l.Snapshot(), hasSnap: true,
		ranks:  []rankRun{{name: `ta"ble\1` + "\n", snaps: []machine.Snapshot{l.Snapshot()}}},
		caches: []cacheRun{{name: "fig2-wa", st: cache.Stats{Accesses: 10, Hits: 8, Misses: 2, VictimsM: 1}}},
		scalars: []metricSample{
			{family: "wa_up", value: 1},
			{family: "wa_monitor_events_total", value: 3},
			{family: "wa_violations_total", value: 0},
			{family: "wa_sse_clients", value: 0},
		},
	}

	var buf bytes.Buffer
	if err := e.write(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ValidateExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not validate: %v\n%s", err, buf.String())
	}
	// Per snapshot: flops, two per level, six per interface.
	if want := 2*(1+2*3+6*2) + 6 + len(e.scalars); info.Samples != want {
		t.Fatalf("validated %d samples, want %d:\n%s", info.Samples, want, buf.String())
	}
	if !strings.Contains(buf.String(), `run="ta\"ble\\1\n"`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

func TestWriteExpositionRejectsUndeclaredFamily(t *testing.T) {
	var buf bytes.Buffer
	err := (&exposition{scalars: []metricSample{{family: "made_up_total", value: 1}}}).write(&buf)
	if err == nil || !strings.Contains(err.Error(), "made_up_total") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateExpositionCatchesScraperErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"no type", "foo 1\n", "no preceding # TYPE"},
		{"no help", "# TYPE foo counter\nfoo 1\n", "no preceding # HELP"},
		{"dup type", "# HELP foo x\n# TYPE foo counter\n# TYPE foo counter\n", "duplicate TYPE"},
		{"unknown type", "# HELP foo x\n# TYPE foo widget\n", "unknown type"},
		{"not contiguous", "# HELP a x\n# TYPE a counter\n# HELP b x\n# TYPE b counter\na 1\nb 2\na 3\n", "not contiguous"},
		{"dup sample", "# HELP a x\n# TYPE a counter\na{k=\"v\"} 1\na{k=\"v\"} 2\n", "duplicate sample"},
		{"bad value", "# HELP a x\n# TYPE a counter\na one\n", "bad value"},
		{"bad label name", "# HELP a x\n# TYPE a counter\na{0k=\"v\"} 1\n", "bad label name"},
		{"unquoted label", "# HELP a x\n# TYPE a counter\na{k=v} 1\n", "not quoted"},
		{"bad metric name", "# HELP a x\n# TYPE a counter\n0a 1\n", "bad metric name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateExposition([]byte(tc.text))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	good := "# HELP a x\n# TYPE a gauge\na{k=\"v\"} 1\na{k=\"w\"} 2.5\n\n# comment\n# HELP b y\n# TYPE b counter\nb 3e7 1700000000\n"
	info, err := ValidateExposition([]byte(good))
	if err != nil {
		t.Fatalf("valid text rejected: %v", err)
	}
	if info.Families != 2 || info.Samples != 3 {
		t.Fatalf("info = %+v", info)
	}
}
