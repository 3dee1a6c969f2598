package monitor

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// stdlib: the repo takes no dependencies, and the format is small — # HELP
// and # TYPE lines per family, then `name{labels} value` samples, families
// contiguous. Histogram families render the standard triplet: cumulative
// `_bucket{le=...}` series ending in `+Inf`, `_sum`, and `_count`.
// ValidateExposition is the matching parser, used by tests and `wabench`'s
// own self-check so the endpoint can never silently drift from what a real
// scraper accepts — including the histogram invariants (buckets cumulative
// and ascending, `+Inf` present, `_count` equal to the `+Inf` bucket).

// labelPair is one ordered label; ordering keeps output deterministic.
type labelPair struct {
	key, value string
}

// metricSample is one rendered sample of a counter/gauge family.
type metricSample struct {
	family string
	labels []labelPair
	value  float64
}

// histogramSample is one rendered histogram series of a histogram family.
type histogramSample struct {
	family string
	labels []labelPair
	h      HistogramSnapshot
}

// familyDef declares one family's metadata; the declaration order is the
// emission order.
type familyDef struct {
	name string
	typ  string // counter | gauge | histogram
	help string
}

var families = []familyDef{
	{"wa_up", "gauge", "1 while the observed run is live."},
	{"wa_build_info", "gauge", "Build metadata of the serving binary (constant 1; labels carry the facts)."},
	{"wa_flops_total", "counter", "Floating-point operations recorded."},
	{"wa_level_init_words_total", "counter", "Words initialized directly in a memory level."},
	{"wa_level_writes_to_words_total", "counter", "Words written into a memory level (inits + loads from below + stores from above)."},
	{"wa_interface_load_words_total", "counter", "Words loaded (slow->fast) across an interface."},
	{"wa_interface_store_words_total", "counter", "Words stored (fast->slow) across an interface."},
	{"wa_interface_load_msgs_total", "counter", "Load messages across an interface."},
	{"wa_interface_store_msgs_total", "counter", "Store messages across an interface."},
	{"wa_interface_remote_load_words_total", "counter", "Words loaded across an interface over the inter-socket link (included in wa_interface_load_words_total)."},
	{"wa_interface_remote_store_words_total", "counter", "Words stored across an interface over the inter-socket link (included in wa_interface_store_words_total)."},
	{"wa_interface_traffic_words_total", "counter", "Total words moved across an interface."},
	{"wa_interface_theorem1_holds", "gauge", "1 if Theorem 1 (2*writesFast >= traffic) holds on the cumulative counters."},
	{"wa_cache_accesses_total", "counter", "Accesses simulated by a cache simulator."},
	{"wa_cache_hits_total", "counter", "Cache simulator hits."},
	{"wa_cache_misses_total", "counter", "Cache simulator misses."},
	{"wa_cache_victims_dirty_total", "counter", "Dirty lines written back to memory (LLC_VICTIMS.M)."},
	{"wa_cache_victims_clean_total", "counter", "Clean lines evicted (LLC_VICTIMS.E)."},
	{"wa_cache_write_throughs_total", "counter", "Per-access memory writes in write-through mode."},
	{"wa_monitor_events_total", "counter", "Counter-bearing events folded into the conformance monitor."},
	{"wa_monitor_phases_total", "counter", "Phases the conformance monitor evaluated."},
	{"wa_violations_total", "counter", "Conformance violations recorded."},
	{"wa_phase_duration_seconds", "histogram", "Wall-clock duration of each event-carrying phase."},
	{"wa_phase_load_words", "histogram", "Words loaded across all interfaces per phase (sum is exact: equals the cumulative load counter)."},
	{"wa_phase_store_words", "histogram", "Words stored across all interfaces per phase (sum is exact: equals the cumulative store counter)."},
	{"wa_phase_remote_write_share", "histogram", "Inter-socket fraction of stored words per phase (multi-socket phases only)."},
	{"wa_phase_floor_slack_ratio", "histogram", "Observed slow writes divided by the registered (M, omega) store floor, per floor check."},
	{"wa_flight_events_total", "counter", "Events that passed through the flight recorder's ring."},
	{"wa_flight_dropped_events_total", "counter", "Flight-ring events overwritten before any capture froze them."},
	{"wa_flight_ring_events", "gauge", "Events currently resident in the flight recorder's ring."},
	{"wa_flight_captures_total", "counter", "Ring freezes taken by the flight recorder (violation-triggered and on-demand)."},
	{"wa_flight_bundles_total", "counter", "Forensic bundles stored on the server."},
	{"wa_sse_clients", "gauge", "Currently connected /events subscribers."},
	{"wa_sse_sent_total", "counter", "SSE messages delivered to subscriber queues."},
	{"wa_sse_dropped_total", "counter", "SSE messages dropped on full client queues."},
	{"wa_sse_queue_depth", "histogram", "Per-client queue depth observed at each SSE enqueue."},
	{"wa_go_goroutines", "gauge", "Live goroutines in the serving process (runtime/metrics)."},
	{"wa_go_gomaxprocs", "gauge", "GOMAXPROCS of the serving process."},
	{"wa_go_heap_objects_bytes", "gauge", "Bytes of live heap objects (runtime/metrics)."},
	{"wa_go_memory_total_bytes", "gauge", "Total bytes of memory mapped by the Go runtime."},
	{"wa_go_heap_allocs_bytes_total", "counter", "Cumulative bytes allocated on the heap."},
	{"wa_go_gc_cycles_total", "counter", "Completed GC cycles."},
	{"wa_go_gc_pauses_seconds", "histogram", "Stop-the-world GC pause durations, rebucketed from runtime/metrics onto the fixed ladder."},
}

// Family is the exported view of one declared metric family — what the
// dashboards-as-code generator (internal/observ) builds panels and rules
// from, and what its validator resolves metric references against.
type Family struct {
	Name string
	Type string // counter | gauge | histogram
	Help string
}

// Families lists every declared wa_* family in emission order.
func Families() []Family {
	out := make([]Family, len(families))
	for i, f := range families {
		out[i] = Family{Name: f.name, Type: f.typ, Help: f.help}
	}
	return out
}

// familyType returns the declared type of name, or "".
func familyType(name string) string {
	for _, f := range families {
		if f.name == name {
			return f.typ
		}
	}
	return ""
}

// snapshotSamples renders one machine.Snapshot as samples, with extra labels
// (e.g. run/rank for per-processor views) appended to every sample.
func snapshotSamples(dst []metricSample, s machine.Snapshot, extra []labelPair) []metricSample {
	add := func(family string, labels []labelPair, v float64) {
		dst = append(dst, metricSample{family: family, labels: append(labels, extra...), value: v})
	}
	add("wa_flops_total", nil, float64(s.Flops))
	for i, lv := range s.Levels {
		ll := []labelPair{{"level", lv.Name}, {"index", strconv.Itoa(i)}}
		add("wa_level_init_words_total", ll, float64(lv.InitWords))
		add("wa_level_writes_to_words_total", ll, float64(lv.WritesTo))
	}
	for i, ifc := range s.Interfaces {
		il := []labelPair{{"iface", strconv.Itoa(i)}, {"between", ifc.Between}}
		add("wa_interface_load_words_total", il, float64(ifc.LoadWords))
		add("wa_interface_store_words_total", il, float64(ifc.StoreWords))
		add("wa_interface_load_msgs_total", il, float64(ifc.LoadMsgs))
		add("wa_interface_store_msgs_total", il, float64(ifc.StoreMsgs))
		// Remote families appear only when a multi-socket run recorded
		// remote traffic; flat-machine expositions are unchanged.
		if ifc.RemoteLoadWords != 0 {
			add("wa_interface_remote_load_words_total", il, float64(ifc.RemoteLoadWords))
		}
		if ifc.RemoteStoreWords != 0 {
			add("wa_interface_remote_store_words_total", il, float64(ifc.RemoteStoreWords))
		}
		add("wa_interface_traffic_words_total", il, float64(ifc.Traffic))
		holds := 0.0
		if ifc.Theorem1Holds {
			holds = 1
		}
		add("wa_interface_theorem1_holds", il, holds)
	}
	return dst
}

// cacheSamples renders one cache.Stats observation under a sim label.
func cacheSamples(dst []metricSample, name string, st cache.Stats) []metricSample {
	ll := []labelPair{{"sim", name}}
	add := func(family string, v int64) {
		dst = append(dst, metricSample{family: family, labels: ll, value: float64(v)})
	}
	add("wa_cache_accesses_total", st.Accesses)
	add("wa_cache_hits_total", st.Hits)
	add("wa_cache_misses_total", st.Misses)
	add("wa_cache_victims_dirty_total", st.VictimsM)
	add("wa_cache_victims_clean_total", st.VictimsE)
	add("wa_cache_write_throughs_total", st.WriteThroughs)
	return dst
}

// writeExposition renders the samples grouped by family in declaration
// order, with HELP/TYPE headers, skipping families with no samples.
// Histogram families render each series as cumulative buckets + sum + count.
func writeExposition(w io.Writer, samples []metricSample, hists []histogramSample) error {
	byFamily := make(map[string][]metricSample, len(families))
	for _, s := range samples {
		byFamily[s.family] = append(byFamily[s.family], s)
	}
	histByFamily := make(map[string][]histogramSample, len(hists))
	for _, h := range hists {
		histByFamily[h.family] = append(histByFamily[h.family], h)
	}
	for _, f := range families {
		group := byFamily[f.name]
		hgroup := histByFamily[f.name]
		if len(group) == 0 && len(hgroup) == 0 {
			continue
		}
		delete(byFamily, f.name)
		delete(histByFamily, f.name)
		if len(group) > 0 && f.typ == "histogram" {
			return fmt.Errorf("monitor: scalar samples for histogram family %q", f.name)
		}
		if len(hgroup) > 0 && f.typ != "histogram" {
			return fmt.Errorf("monitor: histogram samples for %s family %q", f.typ, f.name)
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range group {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.family, renderLabels(s.labels), formatValue(s.value)); err != nil {
				return err
			}
		}
		for _, h := range hgroup {
			if err := writeHistogram(w, h); err != nil {
				return err
			}
		}
	}
	undeclared := make([]string, 0, len(byFamily)+len(histByFamily))
	for name := range byFamily {
		undeclared = append(undeclared, name)
	}
	for name := range histByFamily {
		undeclared = append(undeclared, name)
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return fmt.Errorf("monitor: samples for undeclared families %v", undeclared)
	}
	return nil
}

// writeHistogram renders one histogram series: the snapshot's per-bucket
// counts accumulated into the cumulative `le` series a scraper expects,
// closed by `+Inf`, `_sum`, and `_count`.
func writeHistogram(w io.Writer, h histogramSample) error {
	if len(h.h.Counts) != len(h.h.Bounds)+1 {
		return fmt.Errorf("monitor: histogram %q has %d counts for %d bounds",
			h.family, len(h.h.Counts), len(h.h.Bounds))
	}
	var cum int64
	for i, bound := range h.h.Bounds {
		cum += h.h.Counts[i]
		labels := append(append([]labelPair(nil), h.labels...), labelPair{"le", formatValue(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.family, renderLabels(labels), cum); err != nil {
			return err
		}
	}
	cum += h.h.Counts[len(h.h.Counts)-1]
	labels := append(append([]labelPair(nil), h.labels...), labelPair{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.family, renderLabels(labels), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.family, renderLabels(h.labels), formatValue(h.h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.family, renderLabels(h.labels), cum)
	return err
}

func renderLabels(labels []labelPair) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// unescapeLabel inverts escapeLabel — the parser side of the label
// round-trip the exposition tests pin.
func unescapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' || i+1 == len(v) {
			b.WriteByte(v[i])
			continue
		}
		i++
		switch v[i] {
		case 'n':
			b.WriteByte('\n')
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		default: // unknown escape: keep both bytes
			b.WriteByte('\\')
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- validation --------------------------------------------------------------

// ExpositionInfo summarizes a parsed exposition.
type ExpositionInfo struct {
	Families int
	Samples  int
	// HistogramSeries counts validated histogram series (one per family ×
	// labelset); HistogramFamilies the distinct histogram families that
	// exposed at least one series.
	HistogramSeries   int
	HistogramFamilies int
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// histSeries accumulates one histogram series (family × labelset) while its
// family is open, for the close-time invariant checks.
type histSeries struct {
	buckets  int
	lastLE   float64
	lastCum  float64
	infCum   float64
	hasInf   bool
	sum      float64
	hasSum   bool
	count    float64
	hasCount bool
}

// ValidateExposition parses text as Prometheus exposition format 0.0.4 and
// checks what a scraper would: metric and label names are legal, every
// sample's family was declared with # TYPE (and HELP precedes it), families
// are contiguous, values parse as floats, and no (name, labelset) repeats.
// For histogram families it additionally enforces the series contract
// `histogram_quantile` relies on: every series' buckets appear in ascending
// `le` order with cumulative (non-decreasing) counts, end in an explicit
// `+Inf` bucket, and carry `_sum` and `_count` samples with `_count` equal
// to the `+Inf` bucket. Bare samples under a histogram family name are
// rejected — a histogram is only its `_bucket`/`_sum`/`_count` series.
func ValidateExposition(text []byte) (ExpositionInfo, error) {
	var info ExpositionInfo
	typed := map[string]string{}
	helped := map[string]bool{}
	seen := map[string]bool{}
	closed := map[string]bool{}
	current := ""
	var hist map[string]*histSeries // open histogram family's series, keyed by canonical non-le labels
	closeFamily := func() error {
		if hist == nil {
			return nil
		}
		keys := make([]string, 0, len(hist))
		for k := range hist {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hs := hist[k]
			if hs.buckets == 0 {
				return fmt.Errorf("histogram %s%s has no buckets", current, k)
			}
			if !hs.hasInf {
				return fmt.Errorf("histogram %s%s is missing its +Inf bucket", current, k)
			}
			if !hs.hasSum {
				return fmt.Errorf("histogram %s%s is missing _sum", current, k)
			}
			if !hs.hasCount {
				return fmt.Errorf("histogram %s%s is missing _count", current, k)
			}
			if hs.count != hs.infCum {
				return fmt.Errorf("histogram %s%s _count %g != +Inf bucket %g", current, k, hs.count, hs.infCum)
			}
			info.HistogramSeries++
		}
		info.HistogramFamilies++
		hist = nil
		return nil
	}
	for ln, line := range strings.Split(string(text), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				name := fields[2]
				if !metricNameRe.MatchString(name) {
					return info, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
				}
				if fields[1] == "HELP" {
					helped[name] = true
					continue
				}
				if len(fields) != 4 {
					return info, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return info, fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := typed[name]; dup {
					return info, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typed[name] = fields[3]
				info.Families++
			}
			continue // other comments are legal and ignored
		}
		name, pairs, labels, value, err := parseSample(line)
		if err != nil {
			return info, fmt.Errorf("line %d: %w", lineNo, err)
		}
		family, role := resolveFamily(name, typed)
		if family == "" {
			return info, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		if typed[family] == "histogram" && role == "" {
			return info, fmt.Errorf("line %d: bare sample %q under histogram family %q", lineNo, name, family)
		}
		if !helped[family] {
			return info, fmt.Errorf("line %d: sample %q has no preceding # HELP", lineNo, name)
		}
		if family != current {
			if closed[family] {
				return info, fmt.Errorf("line %d: family %q is not contiguous", lineNo, family)
			}
			if current != "" {
				closed[current] = true
			}
			if err := closeFamily(); err != nil {
				return info, fmt.Errorf("line %d: %w", lineNo, err)
			}
			current = family
			if typed[family] == "histogram" {
				hist = map[string]*histSeries{}
			}
		}
		key := name + labels
		if seen[key] {
			return info, fmt.Errorf("line %d: duplicate sample %s%s", lineNo, name, labels)
		}
		seen[key] = true
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return info, fmt.Errorf("line %d: bad value %q: %w", lineNo, value, err)
		}
		info.Samples++
		if typed[family] == "histogram" {
			if err := foldHistogramSample(hist, role, pairs, v); err != nil {
				return info, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := closeFamily(); err != nil {
		return info, err
	}
	return info, nil
}

// resolveFamily maps a sample name to its declared family: an exact TYPE
// match wins; otherwise a _bucket/_sum/_count suffix resolves against a
// histogram- or summary-typed base (role reports which series it is).
func resolveFamily(name string, typed map[string]string) (family, role string) {
	if _, ok := typed[name]; ok {
		return name, ""
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		switch typed[base] {
		case "histogram":
			return base, suffix
		case "summary":
			if suffix != "_bucket" {
				return base, suffix
			}
		}
	}
	return "", ""
}

// foldHistogramSample accumulates one _bucket/_sum/_count sample into its
// series state, enforcing the order-dependent invariants (ascending le,
// cumulative counts) as the lines arrive.
func foldHistogramSample(hist map[string]*histSeries, role string, pairs []labelPair, v float64) error {
	var le string
	hasLE := false
	rest := make([]labelPair, 0, len(pairs))
	for _, p := range pairs {
		if p.key == "le" {
			if hasLE {
				return fmt.Errorf("duplicate le label")
			}
			le, hasLE = p.value, true
			continue
		}
		rest = append(rest, p)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].key < rest[j].key })
	key := renderLabels(rest)
	hs := hist[key]
	if hs == nil {
		hs = &histSeries{}
		hist[key] = hs
	}
	switch role {
	case "_bucket":
		if !hasLE {
			return fmt.Errorf("histogram bucket without an le label")
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("bad le value %q: %w", le, err)
		}
		if hs.hasInf {
			return fmt.Errorf("bucket after the +Inf bucket")
		}
		if hs.buckets > 0 && bound <= hs.lastLE {
			return fmt.Errorf("bucket le %q out of ascending order", le)
		}
		if v < hs.lastCum {
			return fmt.Errorf("non-cumulative bucket counts (le %q: %g < %g)", le, v, hs.lastCum)
		}
		hs.buckets++
		hs.lastLE = bound
		hs.lastCum = v
		if math.IsInf(bound, +1) {
			hs.hasInf = true
			hs.infCum = v
		}
		return nil
	case "_sum":
		if hasLE {
			return fmt.Errorf("_sum must not carry an le label")
		}
		if hs.hasSum {
			return fmt.Errorf("duplicate _sum for one series")
		}
		hs.sum, hs.hasSum = v, true
		return nil
	case "_count":
		if hasLE {
			return fmt.Errorf("_count must not carry an le label")
		}
		if hs.hasCount {
			return fmt.Errorf("duplicate _count for one series")
		}
		hs.count, hs.hasCount = v, true
		return nil
	}
	return fmt.Errorf("unexpected histogram series role %q", role)
}

// parseSample splits one sample line into name, parsed label pairs (values
// unescaped), the canonical label string, and value, validating name and
// label syntax.
func parseSample(line string) (name string, pairs []labelPair, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", nil, "", "", fmt.Errorf("unterminated label set")
		}
		labels = rest[i : j+1]
		pairs, err = parseLabelPairs(rest[i+1 : j])
		if err != nil {
			return "", nil, "", "", err
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, "", "", fmt.Errorf("sample needs a value")
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, "", "", fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return "", nil, "", "", fmt.Errorf("sample needs `value [timestamp]`, got %q", rest)
	}
	return name, pairs, labels, fields[0], nil
}

// parseLabelPairs validates `k="v",k2="v2"` with standard escapes and
// returns the pairs with their values unescaped.
func parseLabelPairs(s string) ([]labelPair, error) {
	var pairs []labelPair
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s[i:])
		}
		key := s[i : i+j]
		if !labelNameRe.MatchString(key) {
			return nil, fmt.Errorf("bad label name %q", key)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %q value is not quoted", key)
		}
		i++
		start := i
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("label %q value is unterminated", key)
			}
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		pairs = append(pairs, labelPair{key: key, value: unescapeLabel(s[start:i])})
		i++ // closing quote
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels at %q", s[i:])
			}
			i++
		}
	}
	return pairs, nil
}
