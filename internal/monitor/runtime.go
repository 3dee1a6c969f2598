package monitor

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
)

// Self-telemetry: the serving process's own vitals, so a dashboard showing
// wa_* traffic distributions can correlate them with what the Go runtime was
// doing (GC pressure while a phase ran long, goroutine leaks from SSE
// handlers). Everything comes from runtime/metrics — one Read per scrape, no
// background goroutine — plus runtime/debug.ReadBuildInfo, once per process,
// for wa_build_info.

// GCPauseBuckets prices stop-the-world GC pauses: 1µs up to ~0.26s.
var GCPauseBuckets = ExpBuckets(1e-6, 4, 10)

// runtimeMetric maps one runtime/metrics sample onto a wa_go_* family.
type runtimeMetric struct {
	name   string // runtime/metrics key
	family string
}

var runtimeMetrics = []runtimeMetric{
	{"/sched/goroutines:goroutines", "wa_go_goroutines"},
	{"/sched/gomaxprocs:threads", "wa_go_gomaxprocs"},
	{"/memory/classes/heap/objects:bytes", "wa_go_heap_objects_bytes"},
	{"/memory/classes/total:bytes", "wa_go_memory_total_bytes"},
	{"/gc/heap/allocs:bytes", "wa_go_heap_allocs_bytes_total"},
	{"/gc/cycles/total:gc-cycles", "wa_go_gc_cycles_total"},
	{"/gc/pauses:seconds", "wa_go_gc_pauses_seconds"},
}

// buildInfoSample renders wa_build_info: constant 1, facts in the labels.
func buildInfoSample() metricSample {
	return metricSample{family: "wa_build_info", labels: buildInfo(), value: 1}
}

// buildInfo is wa_build_info's labels, read once per process: the build
// does not change while it runs.
var buildInfo = sync.OnceValue(func() []labelPair {
	labels := []labelPair{{"go_version", runtime.Version()}}
	if bi, ok := debug.ReadBuildInfo(); ok {
		labels = append(labels, labelPair{"module", bi.Main.Path})
		version := bi.Main.Version
		if version == "" {
			version = "(devel)"
		}
		labels = append(labels, labelPair{"version", version})
		for _, set := range bi.Settings {
			if set.Key == "vcs.revision" {
				labels = append(labels, labelPair{"revision", set.Value})
			}
		}
	}
	return labels
})

// readRuntime reads the bridge in one runtime/metrics.Read call into e's
// kept samples (so the GC-pause histogram's buckets are reused scrape to
// scrape) and appends the scalar families to e.scalars and the histogram
// families (currently the GC-pause distribution) to e.hists. Metrics a
// toolchain does not export (KindBad) are skipped, not invented.
func (e *exposition) readRuntime() {
	if len(e.rt) == 0 {
		e.rt = make([]metrics.Sample, len(runtimeMetrics))
		for i, rm := range runtimeMetrics {
			e.rt[i].Name = rm.name
		}
	}
	metrics.Read(e.rt)
	for i, s := range e.rt {
		family := runtimeMetrics[i].family
		switch s.Value.Kind() {
		case metrics.KindUint64:
			e.scalars = append(e.scalars, metricSample{family: family, value: float64(s.Value.Uint64())})
		case metrics.KindFloat64:
			e.scalars = append(e.scalars, metricSample{family: family, value: s.Value.Float64()})
		case metrics.KindFloat64Histogram:
			e.hists = append(e.hists, histogramSample{family: family, h: rebucket(s.Value.Float64Histogram(), GCPauseBuckets)})
		}
	}
}

// rebucket folds a runtime/metrics histogram onto one of our fixed ladders:
// each runtime bucket's count lands in the smallest ladder bucket whose bound
// covers the runtime bucket's upper edge (conservative — a pause can only be
// rounded up). Runtime histograms carry no sum, so Sum is approximated from
// bucket edges; the exactness pins deliberately cover only the wa_phase_*
// families, never this bridge.
func rebucket(h *metrics.Float64Histogram, bounds []float64) HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		upper := h.Buckets[i+1] // runtime edges: len(Buckets) == len(Counts)+1
		j := sort.SearchFloat64s(bounds, upper)
		snap.Counts[j] += int64(c)
		snap.Count += int64(c)
		if math.IsInf(upper, +1) {
			upper = h.Buckets[i] // +Inf bucket: price at its lower edge
		}
		snap.Sum += float64(c) * upper
	}
	return snap
}
