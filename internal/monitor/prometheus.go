package monitor

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime/metrics"
	"slices"
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

// metricSample is one scalar sample of a counter or gauge family: the
// sources with no family of their own (wa_up, the monitor, flight and SSE
// counts, build info, the runtime bridge).
type metricSample struct {
	family string
	labels []labelPair
	value  float64
}

// histogramSample is one histogram series of a histogram family.
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

// exposition is what one /metrics body is encoded from: the cumulative
// snapshot, per-rank snapshots by run, cache simulator stats, scalar
// samples and histogram series. write encodes it family by family, in
// declaration order, straight from these sources into one buffer: labels
// are escaped and values formatted in place, so a body allocates nothing
// per sample. Server.handleMetrics takes one from a pool for every scrape
// and keeps its slices and buffer for the next.
type exposition struct {
	snap    machine.Snapshot
	hasSnap bool
	ranks   []rankRun
	caches  []cacheRun
	scalars []metricSample
	hists   []histogramSample

	buf []byte
	rt  []metrics.Sample // the runtime bridge's reads (runtime.go)
}

// rankRun is one run's per-rank snapshots, from the source fn; each
// sample carries run and rank labels after its own.
type rankRun struct {
	name  string
	fn    func() []machine.Snapshot
	snaps []machine.Snapshot
}

// cacheRun is one cache simulator's stats, under a sim label.
type cacheRun struct {
	name string
	st   cache.Stats
}

// reset empties e for the next scrape, keeping its slices' capacity and
// no reference to what the last one read.
func (e *exposition) reset() {
	e.snap, e.hasSnap = machine.Snapshot{}, false
	clear(e.ranks)
	clear(e.scalars)
	clear(e.hists)
	e.ranks, e.caches, e.scalars, e.hists = e.ranks[:0], e.caches[:0], e.scalars[:0], e.hists[:0]
}

// snapshotFamily is what each snapshot emits into a family: its flops, or
// a sample per level, or a sample per interface (sparse: only where the
// value is nonzero, so the remote families appear only when a multi-socket
// run recorded remote traffic and flat-machine bodies are unchanged).
type snapshotFamily struct {
	level  func(*machine.LevelSnapshot) int64
	iface  func(*machine.InterfaceSnapshot) int64
	sparse bool
}

// snapshotFamilies are the families a machine.Snapshot emits into;
// wa_flops_total has neither a level nor an interface function.
var snapshotFamilies = map[string]snapshotFamily{
	"wa_flops_total":                        {},
	"wa_level_init_words_total":             {level: func(l *machine.LevelSnapshot) int64 { return l.InitWords }},
	"wa_level_writes_to_words_total":        {level: func(l *machine.LevelSnapshot) int64 { return l.WritesTo }},
	"wa_interface_load_words_total":         {iface: func(i *machine.InterfaceSnapshot) int64 { return i.LoadWords }},
	"wa_interface_store_words_total":        {iface: func(i *machine.InterfaceSnapshot) int64 { return i.StoreWords }},
	"wa_interface_load_msgs_total":          {iface: func(i *machine.InterfaceSnapshot) int64 { return i.LoadMsgs }},
	"wa_interface_store_msgs_total":         {iface: func(i *machine.InterfaceSnapshot) int64 { return i.StoreMsgs }},
	"wa_interface_remote_load_words_total":  {iface: func(i *machine.InterfaceSnapshot) int64 { return i.RemoteLoadWords }, sparse: true},
	"wa_interface_remote_store_words_total": {iface: func(i *machine.InterfaceSnapshot) int64 { return i.RemoteStoreWords }, sparse: true},
	"wa_interface_traffic_words_total":      {iface: func(i *machine.InterfaceSnapshot) int64 { return i.Traffic }},
	"wa_interface_theorem1_holds": {iface: func(i *machine.InterfaceSnapshot) int64 {
		if i.Theorem1Holds {
			return 1
		}
		return 0
	}},
}

// cacheFamilies are the families a cache.Stats emits into.
var cacheFamilies = map[string]func(*cache.Stats) int64{
	"wa_cache_accesses_total":       func(s *cache.Stats) int64 { return s.Accesses },
	"wa_cache_hits_total":           func(s *cache.Stats) int64 { return s.Hits },
	"wa_cache_misses_total":         func(s *cache.Stats) int64 { return s.Misses },
	"wa_cache_victims_dirty_total":  func(s *cache.Stats) int64 { return s.VictimsM },
	"wa_cache_victims_clean_total":  func(s *cache.Stats) int64 { return s.VictimsE },
	"wa_cache_write_throughs_total": func(s *cache.Stats) int64 { return s.WriteThroughs },
}

// flushAt is the buffered body size at which the encoder writes out.
const flushAt = 1 << 16

// write encodes the body to w: families in declaration order, each with
// its HELP and TYPE lines, skipping families with no samples; within a
// family the cumulative snapshot's samples, each rank's in run order, each
// cache's, the scalar samples, then the histogram series (cumulative
// `_bucket{le=...}` lines ending in `+Inf`, `_sum`, `_count`). A scalar
// sample under a histogram family, a histogram under any other, a
// histogram whose counts do not match its bounds and a sample of an
// undeclared family fail it, after what came before went out.
func (e *exposition) write(w io.Writer) error {
	x := encoder{w: w, buf: e.buf[:0]}
	err := x.body(e)
	x.flush()
	e.buf = x.buf
	if err != nil {
		return err
	}
	return x.err
}

// encoder is one body being written: buf goes out to w whenever it
// reaches flushAt, and err keeps the first write error.
type encoder struct {
	w    io.Writer
	buf  []byte
	err  error
	fam  *familyDef
	open bool // fam's HELP and TYPE lines are written
}

func (x *encoder) body(e *exposition) error {
	for i := range families {
		f := &families[i]
		var scalars, hists int
		for j := range e.scalars {
			if e.scalars[j].family == f.name {
				scalars++
			}
		}
		for j := range e.hists {
			if e.hists[j].family == f.name {
				hists++
			}
		}
		if scalars > 0 && f.typ == "histogram" {
			return fmt.Errorf("monitor: scalar samples for histogram family %q", f.name)
		}
		if hists > 0 && f.typ != "histogram" {
			return fmt.Errorf("monitor: histogram samples for %s family %q", f.typ, f.name)
		}
		x.fam, x.open = f, false
		if sf, ok := snapshotFamilies[f.name]; ok {
			if e.hasSnap {
				x.snapshot(&sf, &e.snap, "", -1)
			}
			for _, r := range e.ranks {
				for rank := range r.snaps {
					x.snapshot(&sf, &r.snaps[rank], r.name, rank)
				}
			}
		}
		if v, ok := cacheFamilies[f.name]; ok {
			for j := range e.caches {
				c := &e.caches[j]
				x.line("")
				x.label(true, "sim", c.name)
				x.float(true, float64(v(&c.st)))
			}
		}
		for j := range e.scalars {
			if s := &e.scalars[j]; s.family == f.name {
				x.line("")
				x.float(x.labels(s.labels), s.value)
			}
		}
		for j := range e.hists {
			if h := &e.hists[j]; h.family == f.name {
				if err := x.histogram(h); err != nil {
					return err
				}
			}
		}
	}
	return undeclared(e)
}

// undeclared fails on samples of families not in the registry, naming
// each once among the scalar samples and once among the histograms.
func undeclared(e *exposition) error {
	var names []string
	add := func(from int, name string) {
		declared := slices.ContainsFunc(families, func(f familyDef) bool { return f.name == name })
		if !declared && !slices.Contains(names[from:], name) {
			names = append(names, name)
		}
	}
	for _, s := range e.scalars {
		add(0, s.family)
	}
	hists := len(names)
	for _, h := range e.hists {
		add(hists, h.family)
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return fmt.Errorf("monitor: samples for undeclared families %v", names)
}

// snapshot writes s's samples of the current family; a rank's (rank >= 0)
// carry the run and rank labels after their own.
func (x *encoder) snapshot(sf *snapshotFamily, s *machine.Snapshot, run string, rank int) {
	switch {
	case sf.level != nil:
		for i := range s.Levels {
			l := &s.Levels[i]
			x.line("")
			x.label(true, "level", l.Name)
			x.labelInt(false, "index", i)
			x.float(x.rank(true, run, rank), float64(sf.level(l)))
		}
	case sf.iface != nil:
		for i := range s.Interfaces {
			ifc := &s.Interfaces[i]
			v := sf.iface(ifc)
			if sf.sparse && v == 0 {
				continue
			}
			x.line("")
			x.labelInt(true, "iface", i)
			x.label(false, "between", ifc.Between)
			x.float(x.rank(true, run, rank), float64(v))
		}
	default:
		x.line("")
		x.float(x.rank(false, run, rank), float64(s.Flops))
	}
}

// rank appends a rank snapshot's run and rank labels (rank >= 0) after
// the line's own, if any, and reports whether the line has labels.
func (x *encoder) rank(some bool, run string, rank int) bool {
	if rank < 0 {
		return some
	}
	x.label(!some, "run", run)
	x.labelInt(false, "rank", rank)
	return true
}

// histogram writes one histogram series.
func (x *encoder) histogram(h *histogramSample) error {
	x.head()
	s := &h.h
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("monitor: histogram %q has %d counts for %d bounds",
			h.family, len(s.Counts), len(s.Bounds))
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		x.line("_bucket")
		x.sep(!x.labels(h.labels))
		x.buf = append(x.buf, `le="`...)
		x.buf = strconv.AppendFloat(x.buf, bound, 'g', -1, 64)
		x.buf = append(x.buf, '"')
		x.int(true, cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	x.line("_bucket")
	x.sep(!x.labels(h.labels))
	x.buf = append(x.buf, `le="+Inf"`...)
	x.int(true, cum)
	x.line("_sum")
	x.float(x.labels(h.labels), s.Sum)
	x.line("_count")
	x.int(x.labels(h.labels), cum)
	return nil
}

// head writes the current family's HELP and TYPE lines, once.
func (x *encoder) head() {
	if x.open {
		return
	}
	x.open = true
	f := x.fam
	x.buf = append(x.buf, "# HELP "...)
	x.buf = append(x.buf, f.name...)
	x.buf = append(x.buf, ' ')
	x.buf = append(x.buf, f.help...)
	x.buf = append(x.buf, "\n# TYPE "...)
	x.buf = append(x.buf, f.name...)
	x.buf = append(x.buf, ' ')
	x.buf = append(x.buf, f.typ...)
	x.buf = append(x.buf, '\n')
}

// line starts a sample line of the current family: its name and suffix.
func (x *encoder) line(suffix string) {
	x.head()
	x.buf = append(x.buf, x.fam.name...)
	x.buf = append(x.buf, suffix...)
}

// sep opens the label set before the first label, else separates.
func (x *encoder) sep(first bool) {
	if first {
		x.buf = append(x.buf, '{')
	} else {
		x.buf = append(x.buf, ',')
	}
}

func (x *encoder) label(first bool, key, value string) {
	x.sep(first)
	x.buf = append(x.buf, key...)
	x.buf = append(x.buf, `="`...)
	x.buf = appendLabelValue(x.buf, value)
	x.buf = append(x.buf, '"')
}

func (x *encoder) labelInt(first bool, key string, v int) {
	x.sep(first)
	x.buf = append(x.buf, key...)
	x.buf = append(x.buf, `="`...)
	x.buf = strconv.AppendInt(x.buf, int64(v), 10)
	x.buf = append(x.buf, '"')
}

// labels appends a label list and reports whether it had any.
func (x *encoder) labels(ls []labelPair) bool {
	for i := range ls {
		x.label(i == 0, ls[i].key, ls[i].value)
	}
	return len(ls) > 0
}

// float and int close the label set when the line has one, then write the
// value and end the line.
func (x *encoder) float(labels bool, v float64) {
	x.value(labels)
	x.buf = strconv.AppendFloat(x.buf, v, 'g', -1, 64)
	x.end()
}

func (x *encoder) int(labels bool, v int64) {
	x.value(labels)
	x.buf = strconv.AppendInt(x.buf, v, 10)
	x.end()
}

func (x *encoder) value(labels bool) {
	if labels {
		x.buf = append(x.buf, '}')
	}
	x.buf = append(x.buf, ' ')
}

func (x *encoder) end() {
	x.buf = append(x.buf, '\n')
	if len(x.buf) >= flushAt {
		x.flush()
	}
}

func (x *encoder) flush() {
	if x.err == nil && len(x.buf) > 0 {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
}

// appendLabelValue appends v with the exposition format's escapes: a
// backslash, a double quote and a newline become \\, \" and \n; every other
// byte is copied.
func appendLabelValue(b []byte, v string) []byte {
	for {
		i := strings.IndexAny(v, "\\\"\n")
		if i < 0 {
			return append(b, v...)
		}
		b = append(b, v[:i]...)
		switch v[i] {
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, '\\', v[i])
		}
		v = v[i+1:]
	}
}

// renderLabels renders a label set as the encoder writes it: the
// validator's key for a histogram series.
func renderLabels(labels []labelPair) string {
	if len(labels) == 0 {
		return ""
	}
	var x encoder
	x.labels(labels)
	return string(append(x.buf, '}'))
}

// unescapeLabel inverts appendLabelValue — the parser side of the label
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
