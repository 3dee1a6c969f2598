package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"writeavoid/internal/experiments"
	"writeavoid/internal/profile"
)

var update = flag.Bool("update", false, "regenerate testdata/expected.json")

// TestUpdatePins regenerates the correctness pins from bare Sessions; it runs
// only with -update. Rebuild the benchmark afterwards: the pins are embedded.
func TestUpdatePins(t *testing.T) {
	if !*update {
		t.Skip("regenerates testdata/expected.json only with -update")
	}
	out := map[string]json.RawMessage{}
	for _, sec := range append(append(slices.Clone(kernelSections), distSections...), fig2Section) {
		v := sec.run(experiments.NewSession())
		if sec.check != nil {
			if err := sec.check(v); err != nil {
				t.Fatal(err)
			}
		}
		b, err := exactJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		out[sec.name] = b
	}
	stream := sparseStream(1)
	b, err := exactJSON(sparseStats{replay(newFALRU(), stream), replay(newClock3(), stream)})
	if err != nil {
		t.Fatal(err)
	}
	out["cache-sparse/seed1"] = b
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// spec is the part of ../BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that got holds exactly the metrics want names, each
// with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func runOne(t *testing.T, cfg config, p pins) *document {
	t.Helper()
	doc, err := runWorkload(findWorkload(cfg.workload), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func mustPins(t *testing.T) pins {
	t.Helper()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
}

// TestEachWorkloadOneOp runs every workload for one op in-process. The
// workloads run in parallel: this test checks results, not the metrics'
// values, which other goroutines' allocations and memory would skew.
func TestEachWorkloadOneOp(t *testing.T) {
	s, p := readSpec(t), mustPins(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if w.name == "fig2" && testing.Short() {
				t.Skip("a fig2 op takes about 15 s")
			}
			doc := runOne(t, config{workload: w.name, seed: 1}, p)
			if !doc.Correct || doc.Attempted != 1 || doc.Failed != 0 {
				t.Fatalf("correct %v, %d ops, %d failed: %v", doc.Correct, doc.Attempted, doc.Failed, doc.Failures)
			}
			checkMetrics(t, doc.Metrics, s.EndToEnd)
			for name, m := range doc.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestCorruptedPinFailsOp(t *testing.T) {
	bad := maps.Clone(mustPins(t))
	bad["sec9"] = json.RawMessage(`"corrupted"`)
	doc := runOne(t, config{workload: "kernels-bare", seed: 1}, bad)
	if doc.Correct || doc.Attempted != 1 || doc.Failed != 1 {
		t.Fatalf("correct %v, %d ops, %d failed; want the op counted as failed", doc.Correct, doc.Attempted, doc.Failed)
	}
	if !strings.Contains(strings.Join(doc.Failures, "\n"), "pin sec9") {
		t.Errorf("failures do not name the pin: %v", doc.Failures)
	}
}

// TestTracedRun makes one round of each traced run: on kernels and dist that
// is one pass up the sink ladder, with the server re-pointed and the scraper
// started and halted between steps.
func TestTracedRun(t *testing.T) {
	s, p := readSpec(t), mustPins(t)
	// A ladder reports every sink's step. Its time delta can read below 0 in
	// one round, and so can the allocations of a sink that sees no events
	// (dist's monitor, stream and histograms sit on the main hierarchy, while
	// the rank events go to the per-rank groups).
	var ladder []string
	for _, sink := range kernelSinks {
		ladder = append(ladder, "sinks."+sink+"_s_per_op", "sinks."+sink+"_s_per_op_iqr", "sinks."+sink+"_allocs_per_op")
	}
	for _, c := range []struct {
		workload string
		reported []string // must be in the layers block
		positive []string // must be > 0
		zero     []string // must be 0
	}{
		{"kernels-bare", nil, []string{"machine.events_per_op", "machine.ns_per_event", "experiments.sec9_s"}, nil},
		{"cache-sparse", nil, []string{"cache.accesses_per_op", "cache.falru_ns_per_access", "cache.clock3_hit_ratio"}, nil},
		// One kernels op spans two 250 ms scrape ticks, so at least one
		// scrape completes under the server step.
		{"kernels", ladder, []string{"machine.events_per_op", "monitor.scrape_bytes", "monitor.scrape_s_p50",
			"sinks.monitor_allocs_per_op", "sinks.stream_allocs_per_op", "sinks.profiler_allocs_per_op",
			"sinks.flight_allocs_per_op", "sinks.histograms_allocs_per_op", "sinks.server_allocs_per_op"},
			[]string{"monitor.violations"}},
		{"dist", ladder, []string{"dist.net_words_per_op", "experiments.numa_s",
			"sinks.profiler_allocs_per_op", "sinks.flight_allocs_per_op", "sinks.server_allocs_per_op"},
			[]string{"monitor.violations"}},
	} {
		t.Run(c.workload, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			doc := runOne(t, config{workload: c.workload, seed: 2, traced: true, traceOut: path}, p)
			if !doc.Correct || doc.Failed != 0 {
				t.Fatalf("correct %v, %d failed: %v", doc.Correct, doc.Failed, doc.Failures)
			}
			checkMetrics(t, doc.Metrics, s.PerLayer)
			for _, name := range slices.Concat(c.reported, c.positive, c.zero) {
				if _, ok := doc.Layers[name]; !ok {
					t.Errorf("layers block lacks %s", name)
				}
			}
			for _, name := range c.positive {
				if v := doc.Metrics[name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			for _, name := range c.zero {
				if v := doc.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			info, err := profile.ValidateTraceEvent(data)
			if err != nil {
				t.Fatal(err)
			}
			if info.Spans < 3 {
				t.Errorf("trace has %d spans", info.Spans)
			}
		})
	}
}

func TestBadInputFailsLoudly(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seed", "1"},
		{"-workload", "kernels"},
		{"-workload", "kernels", "-seed", "-3"},
		{"-workload", "kernels", "-seed", "x"},
		{"-workload", "kernels", "-seed", "1", "-seconds", "-1"},
		{"-workload", "kernels", "-seed", "1", "extra"},
		{"-seed", "1", "-trace", "t.json"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc != 2 {
			t.Errorf("%q: exit %d, want 2", args, rc)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: stdout %q, stderr %q; want only a diagnostic", args, stdout.String(), stderr.String())
		}
	}
	var stderr bytes.Buffer
	run([]string{"-workload", "nope", "-seed", "1"}, &bytes.Buffer{}, &stderr)
	for _, w := range workloads {
		if !strings.Contains(stderr.String(), w.name) {
			t.Errorf("unknown-workload message %q does not list %s", stderr.String(), w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in CPython.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
