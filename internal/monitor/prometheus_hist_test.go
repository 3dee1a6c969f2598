package monitor

import (
	"bytes"
	"strings"
	"testing"
)

func renderOne(t *testing.T, hs histogramSample) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (&exposition{hists: []histogramSample{hs}}).write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.String()
}

// The writer renders the standard triplet: cumulative buckets in ladder
// order, +Inf equal to the count, then _sum and _count — and the parser
// accepts it back with the histogram accounted.
func TestHistogramExpositionRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	text := renderOne(t, histogramSample{family: "wa_sse_queue_depth", h: h.Snapshot()})
	for _, want := range []string{
		`wa_sse_queue_depth_bucket{le="1"} 1`,
		`wa_sse_queue_depth_bucket{le="10"} 2`,
		`wa_sse_queue_depth_bucket{le="100"} 3`,
		`wa_sse_queue_depth_bucket{le="+Inf"} 4`,
		`wa_sse_queue_depth_sum 555.5`,
		`wa_sse_queue_depth_count 4`,
		"# TYPE wa_sse_queue_depth histogram",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	info, err := ValidateExposition([]byte(text))
	if err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
	if info.HistogramSeries != 1 || info.HistogramFamilies != 1 {
		t.Fatalf("info = %+v, want 1 series / 1 family", info)
	}
}

// Scalar samples under a histogram family (and histogram samples under a
// scalar family) are writer errors, not silent misrenders.
func TestWriteExpositionRejectsTypeMismatches(t *testing.T) {
	var buf bytes.Buffer
	err := (&exposition{scalars: []metricSample{{family: "wa_phase_load_words", value: 1}}}).write(&buf)
	if err == nil {
		t.Fatal("scalar sample under histogram family accepted")
	}
	h := NewHistogram([]float64{1})
	err = (&exposition{hists: []histogramSample{{family: "wa_flops_total", h: h.Snapshot()}}}).write(&buf)
	if err == nil {
		t.Fatal("histogram sample under counter family accepted")
	}
}

// validHist is a correct exposition the edge cases below mutate.
const validHist = `# HELP wa_h test
# TYPE wa_h histogram
wa_h_bucket{le="1"} 2
wa_h_bucket{le="10"} 3
wa_h_bucket{le="+Inf"} 5
wa_h_sum 42
wa_h_count 5
`

func TestValidateExpositionHistogramEdgeCases(t *testing.T) {
	cases := map[string]struct {
		text    string
		wantErr string
	}{
		"valid": {validHist, ""},
		"non-cumulative buckets": {
			strings.Replace(validHist, `wa_h_bucket{le="10"} 3`, `wa_h_bucket{le="10"} 1`, 1),
			"non-cumulative",
		},
		"missing +Inf": {
			strings.Replace(validHist, "wa_h_bucket{le=\"+Inf\"} 5\n", "", 1),
			"+Inf",
		},
		"count mismatch": {
			strings.Replace(validHist, "wa_h_count 5", "wa_h_count 6", 1),
			"_count 6 != +Inf bucket 5",
		},
		"missing sum": {
			strings.Replace(validHist, "wa_h_sum 42\n", "", 1),
			"missing _sum",
		},
		"missing count": {
			strings.Replace(validHist, "wa_h_count 5\n", "", 1),
			"missing _count",
		},
		"buckets out of order": {
			"# HELP wa_h test\n# TYPE wa_h histogram\n" +
				"wa_h_bucket{le=\"10\"} 2\nwa_h_bucket{le=\"1\"} 3\nwa_h_bucket{le=\"+Inf\"} 5\nwa_h_sum 1\nwa_h_count 5\n",
			"ascending",
		},
		"bucket after +Inf": {
			"# HELP wa_h test\n# TYPE wa_h histogram\n" +
				"wa_h_bucket{le=\"+Inf\"} 5\nwa_h_bucket{le=\"1\"} 2\nwa_h_sum 1\nwa_h_count 5\n",
			"after the +Inf",
		},
		"bucket without le": {
			strings.Replace(validHist, `wa_h_bucket{le="1"} 2`, `wa_h_bucket{foo="1"} 2`, 1),
			"without an le label",
		},
		"bad le value": {
			strings.Replace(validHist, `le="1"`, `le="one"`, 1),
			"bad le value",
		},
		"bare sample under histogram": {
			validHist + "# HELP wa_h2 t\n# TYPE wa_h2 histogram\nwa_h2 7\n",
			"bare sample",
		},
		"duplicate sum": {
			strings.Replace(validHist, "wa_h_sum 42\n", "wa_h_sum 42\nwa_h_sum 43\n", 1),
			"duplicate",
		},
		"no buckets at all": {
			"# HELP wa_h test\n# TYPE wa_h histogram\nwa_h_sum 1\nwa_h_count 0\n",
			"no buckets",
		},
		"sum with le label": {
			strings.Replace(validHist, "wa_h_sum 42", `wa_h_sum{le="1"} 42`, 1),
			"must not carry an le",
		},
	}
	for name, tc := range cases {
		_, err := ValidateExposition([]byte(tc.text))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.wantErr)
		}
	}
}

// Histogram series are keyed by their non-le labels: two labeled series in
// one family validate independently, and label values containing the escape
// set round-trip through render + parse without colliding.
func TestHistogramLabelEscapingRoundTrip(t *testing.T) {
	h1 := NewHistogram([]float64{1})
	h1.Observe(0.5)
	h2 := NewHistogram([]float64{1})
	h2.Observe(2)
	tricky := "a\\b\"c\nd"
	text := renderOne(t, histogramSample{
		family: "wa_sse_queue_depth",
		labels: []labelPair{{"tag", tricky}},
		h:      h1.Snapshot(),
	})
	text += renderOne(t, histogramSample{
		family: "wa_go_gc_pauses_seconds",
		labels: []labelPair{{"tag", "plain"}},
		h:      h2.Snapshot(),
	})
	info, err := ValidateExposition([]byte(text))
	if err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
	if info.HistogramSeries != 2 || info.HistogramFamilies != 2 {
		t.Fatalf("info = %+v, want 2 series / 2 families", info)
	}
	// The parser recovers the original label value byte for byte.
	if got := unescapeLabel(string(appendLabelValue(nil, tricky))); got != tricky {
		t.Fatalf("unescape(escape(%q)) = %q", tricky, got)
	}
	name, pairs, _, _, err := parseSample(`wa_x_bucket{tag="a\\b\"c\nd",le="+Inf"} 1`)
	if err != nil {
		t.Fatalf("parseSample: %v", err)
	}
	if name != "wa_x_bucket" || len(pairs) != 2 || pairs[0].value != tricky || pairs[1].value != "+Inf" {
		t.Fatalf("parsed %q / %+v", name, pairs)
	}
}

// Families() exports the declaration-ordered registry the dashboards
// generator consumes, with at least the promised histogram coverage.
func TestFamiliesExport(t *testing.T) {
	fams := Families()
	types := map[string]string{}
	histograms := 0
	for _, f := range fams {
		if !metricNameRe.MatchString(f.Name) || !strings.HasPrefix(f.Name, "wa_") {
			t.Fatalf("bad family name %q", f.Name)
		}
		if f.Help == "" {
			t.Fatalf("family %s has no help", f.Name)
		}
		if _, dup := types[f.Name]; dup {
			t.Fatalf("duplicate family %s", f.Name)
		}
		types[f.Name] = f.Type
		if f.Type == "histogram" {
			histograms++
		}
	}
	if histograms < 4 {
		t.Fatalf("histogram families = %d, want >= 4", histograms)
	}
	for _, want := range []string{
		"wa_phase_duration_seconds", "wa_phase_load_words", "wa_phase_store_words",
		"wa_phase_remote_write_share", "wa_phase_floor_slack_ratio",
		"wa_sse_queue_depth", "wa_go_gc_pauses_seconds",
	} {
		if types[want] != "histogram" {
			t.Fatalf("family %s type = %q, want histogram", want, types[want])
		}
	}
}
