package monitor

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"writeavoid/internal/cache"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
)

// The /metrics writer as it was before exposition.write encoded the body
// straight from its sources: every source rendered into one list of
// samples, each with its own label slice, grouped by family through a map,
// then written a line at a time with fmt.Fprintf, renderLabels and
// formatValue. It is the reference the encoder is checked against
// (TestExpositionMatchesReference, FuzzExpositionMatchesReference).

// refBody writes what the old handler wrote for e's sources: the
// cumulative snapshot's samples, every rank's, every cache's, then the
// scalar samples, with the histogram series after them. The old handler
// put wa_up, the first of e.scalars, before the snapshots; no other source
// emits into wa_up, so the body is the same.
func refBody(w io.Writer, e *exposition) error {
	var samples []metricSample
	if e.hasSnap {
		samples = refSnapshotSamples(samples, e.snap, nil)
	}
	for _, r := range e.ranks {
		for rank, snap := range r.snaps {
			samples = refSnapshotSamples(samples, snap,
				[]labelPair{{"run", r.name}, {"rank", strconv.Itoa(rank)}})
		}
	}
	for _, c := range e.caches {
		samples = refCacheSamples(samples, c.name, c.st)
	}
	samples = append(samples, e.scalars...)
	return refWriteExposition(w, samples, e.hists)
}

// refSnapshotSamples renders one machine.Snapshot as samples, with extra
// labels (e.g. run/rank for per-processor views) appended to every sample.
func refSnapshotSamples(dst []metricSample, s machine.Snapshot, extra []labelPair) []metricSample {
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

// refCacheSamples renders one cache.Stats observation under a sim label.
func refCacheSamples(dst []metricSample, name string, st cache.Stats) []metricSample {
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

// refWriteExposition renders the samples grouped by family in declaration
// order, with HELP/TYPE headers, skipping families with no samples.
// Histogram families render each series as cumulative buckets + sum + count.
func refWriteExposition(w io.Writer, samples []metricSample, hists []histogramSample) error {
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
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.family, refRenderLabels(s.labels), refFormatValue(s.value)); err != nil {
				return err
			}
		}
		for _, h := range hgroup {
			if err := refWriteHistogram(w, h); err != nil {
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

// refWriteHistogram renders one histogram series: the snapshot's per-bucket
// counts accumulated into the cumulative `le` series a scraper expects,
// closed by `+Inf`, `_sum`, and `_count`.
func refWriteHistogram(w io.Writer, h histogramSample) error {
	if len(h.h.Counts) != len(h.h.Bounds)+1 {
		return fmt.Errorf("monitor: histogram %q has %d counts for %d bounds",
			h.family, len(h.h.Counts), len(h.h.Bounds))
	}
	var cum int64
	for i, bound := range h.h.Bounds {
		cum += h.h.Counts[i]
		labels := append(append([]labelPair(nil), h.labels...), labelPair{"le", refFormatValue(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.family, refRenderLabels(labels), cum); err != nil {
			return err
		}
	}
	cum += h.h.Counts[len(h.h.Counts)-1]
	labels := append(append([]labelPair(nil), h.labels...), labelPair{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.family, refRenderLabels(labels), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.family, refRenderLabels(h.labels), refFormatValue(h.h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.family, refRenderLabels(h.labels), cum)
	return err
}

func refRenderLabels(labels []labelPair) string {
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
		b.WriteString(refEscapeLabel(l.value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func refEscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func refFormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Label values that need escaping, non-ASCII text and invalid UTF-8.
var expoStrings = []string{"", "plain", "L1", "fast<->slow", `a\b`, `q"uote`, "new\nline", `\"` + "\n\\", "日本語", "é✓", "\xff\xfe", "tab\there", `{x="y"}`}

// Every float format the value writer distinguishes: signed zeros,
// infinities, NaN, subnormals, the switch to exponent form at 1e21, and
// integers past 2^53.
var expoFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -2.5e-7, 1e20, 1e21, 123456789,
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.SmallestNonzeroFloat64 * 3e7,
	math.MaxFloat64, 1<<53 + 2,
}

var expoInts = []int64{0, 1, 7, 4096, 1<<53 + 1, -3, math.MaxInt64, math.MinInt64}

// randomExposition builds one body's sources: a cumulative snapshot or
// none, runs of rank snapshots (remote words present and absent), cache
// stats, scalar samples and histogram series, with labels and values drawn
// from the sets above. With bad set, samples may also name undeclared
// families or a family of the other kind, and a histogram's counts may not
// match its bounds.
func randomExposition(rng *rand.Rand, size int, bad bool) *exposition {
	str := func() string { return expoStrings[rng.Intn(len(expoStrings))] }
	i64 := func() int64 {
		if rng.Intn(3) == 0 {
			return rng.Int63n(1 << 20)
		}
		return expoInts[rng.Intn(len(expoInts))]
	}
	f64 := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * 1e6
		}
		return expoFloats[rng.Intn(len(expoFloats))]
	}
	labels := func() []labelPair {
		var ls []labelPair
		for range rng.Intn(4) {
			ls = append(ls, labelPair{[]string{"sim", "tag", "run", "le", "k"}[rng.Intn(5)], str()})
		}
		return ls
	}
	snapshot := func() machine.Snapshot {
		var s machine.Snapshot
		s.Flops = i64()
		for range rng.Intn(5) {
			s.Levels = append(s.Levels, machine.LevelSnapshot{Name: str(), InitWords: i64(), WritesTo: i64()})
		}
		for range rng.Intn(4) {
			ifc := machine.InterfaceSnapshot{
				Between: str(), LoadWords: i64(), StoreWords: i64(), LoadMsgs: i64(), StoreMsgs: i64(),
				Traffic: i64(), Theorem1Holds: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				ifc.RemoteLoadWords = i64()
			}
			if rng.Intn(2) == 0 {
				ifc.RemoteStoreWords = i64()
			}
			s.Interfaces = append(s.Interfaces, ifc)
		}
		return s
	}
	// The families a sample may name: with bad set, any declared family and
	// names the registry lacks; else only the kind's own.
	var scalarFams, histFams []string
	for _, f := range families {
		if f.typ == "histogram" {
			histFams = append(histFams, f.name)
		} else {
			scalarFams = append(scalarFams, f.name)
		}
	}
	if bad {
		all := append(append([]string{"made_up_total", "wa_", ""}, scalarFams...), histFams...)
		scalarFams, histFams = all, all
	}

	e := &exposition{}
	if rng.Intn(4) != 0 {
		e.snap, e.hasSnap = snapshot(), true
	}
	for range rng.Intn(4) {
		r := rankRun{name: str()}
		for range rng.Intn(1 + size/8) {
			r.snaps = append(r.snaps, snapshot())
		}
		e.ranks = append(e.ranks, r)
	}
	for range rng.Intn(4) {
		e.caches = append(e.caches, cacheRun{name: str(), st: cache.Stats{
			Accesses: i64(), Hits: i64(), Misses: i64(), VictimsM: i64(), VictimsE: i64(), WriteThroughs: i64(),
		}})
	}
	for range rng.Intn(1 + size) {
		e.scalars = append(e.scalars, metricSample{family: scalarFams[rng.Intn(len(scalarFams))], labels: labels(), value: f64()})
	}
	for range rng.Intn(4) {
		h := histogramSample{family: histFams[rng.Intn(len(histFams))], labels: labels()}
		for range rng.Intn(6) {
			h.h.Bounds = append(h.h.Bounds, f64())
		}
		sort.Float64s(h.h.Bounds)
		n := len(h.h.Bounds) + 1
		if bad && rng.Intn(6) == 0 {
			n += rng.Intn(3) - 1
		}
		for range n {
			h.h.Counts = append(h.h.Counts, i64())
		}
		h.h.Sum = f64()
		e.hists = append(e.hists, h)
	}
	return e
}

// checkExposition fails unless e writes exactly the reference's bytes and
// error.
func checkExposition(t *testing.T, what string, e *exposition) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := e.write(&got)
	werr := refBody(&want, e)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		lo := max(i-200, 0)
		t.Fatalf("%s: body diverges at byte %d of %d (reference %d):\ngot:       %q\nreference: %q",
			what, i, got.Len(), want.Len(), got.Bytes()[lo:min(i+200, got.Len())], want.Bytes()[lo:min(i+200, want.Len())])
	}
}

// The encoder against the sample-list writer on random sources, well
// formed and not, small and past the encoder's 64 KiB flush.
func TestExpositionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := []int{4, 40, 400}[seed%3]
		e := randomExposition(rng, size, seed%2 == 0)
		checkExposition(t, fmt.Sprint("seed ", seed), e)
		// A reused exposition writes the same again.
		checkExposition(t, fmt.Sprint("seed ", seed, " again"), e)
	}
}

// A server's body — every source registered, 384 rank snapshots of a
// NUMA hierarchy (remote words on), flight and histogram families — is
// the reference's for the same gathered sources.
func TestMetricsBodyMatchesReference(t *testing.T) {
	h := machine.New(false, machine.GenericLevels(3)...)
	h.Load(1, 64)
	h.Store(0, 16)
	h.LoadRemote(0, 3)
	h.Flops(1 << 40)
	snaps := make([]machine.Snapshot, 384)
	for i := range snaps {
		h.Load(0, int64(i))
		snaps[i] = h.Snapshot()
	}
	srv := NewServer()
	mon := New(machine.GenericLevels(3), nil)
	srv.SetMonitor(mon)
	srv.PublishRanks("table1", snaps[:128])
	srv.PublishRanks("lu \"x\"", snaps[128:])
	srv.PublishCacheStats("fig2-wa", cache.Stats{Accesses: 10, Hits: 8, Misses: 2, VictimsM: 1})
	srv.PublishCacheStats("clock3", cache.Stats{Accesses: 1 << 60})
	hr := NewHistogramRecorder(machine.GenericLevels(3))
	hr.SetClock(func() time.Time { return time.Unix(0, 0) })
	hr.Ledger().Record([]machine.Event{{Kind: machine.EvLoad, Arg: 0, Words: 100}})
	hr.Phase("k")
	srv.SetHistograms(hr)
	srv.SetFlight(flight.New(64, machine.GenericLevels(3)))
	var e exposition
	srv.gather(&e)
	checkExposition(t, "server", &e)
	var body bytes.Buffer
	if err := e.write(&body); err != nil {
		t.Fatal(err)
	}
	if body.Len() < 3*flushAt {
		t.Fatalf("a %d-byte body does not cross the flush size", body.Len())
	}
	if _, err := ValidateExposition(body.Bytes()); err != nil {
		t.Fatalf("server body does not validate: %v", err)
	}
}

func FuzzExpositionMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), false)
	f.Add(int64(2), uint8(200), true)
	f.Add(int64(3), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, bad bool) {
		checkExposition(t, "fuzz", randomExposition(rand.New(rand.NewSource(seed)), int(size), bad))
	})
}
