package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/experiments"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run reports. A
// workload that does not reach a layer reports 0 for that layer's metrics.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"core.trace_ns_per_access", "ns"},
		{"cache.falru_ns_per_access", "ns"},
		{"cache.falru_allocs_per_access", "count"},
		{"cache.clock3_ns_per_access", "ns"},
		{"cache.accesses_per_op", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.clock3_hit_ratio", "ratio"},
		{"cache.victims_m_per_op", "count"},
		{"access.same_line_ratio", "ratio"},
		{"machine.events_per_op", "count"},
		{"machine.ns_per_event", "ns"},
		{"dist.net_words_per_op", "count"},
		{"dist.ns_per_net_word", "ns"},
		{"monitor.scrape_s_p50", "s"},
		{"monitor.scrape_late_s_max", "s"},
		{"monitor.scrape_bytes", "B"},
		{"monitor.violations", "count"},
	}
	for _, s := range append(slices.Clone(kernelSections), distSections...) {
		defs = append(defs, metricDef{"experiments." + s.name + "_s", "s"})
	}
	for _, s := range kernelSinks {
		defs = append(defs,
			metricDef{"sinks." + s + "_s_per_op", "s"},
			metricDef{"sinks." + s + "_s_per_op_iqr", "s"},
			metricDef{"sinks." + s + "_allocs_per_op", "count"})
	}
	return defs
}

// span records one span of the traced run's Chrome trace on thread tid.
func (b *bench) span(tid int, name string, start, end time.Time) {
	if b.trace == nil {
		return
	}
	us := func(t time.Time) float64 { return float64(t.Sub(b.t0).Nanoseconds()) / 1e3 }
	b.trace.AddSpan(0, tid, name, us(start), us(end), nil)
}

// sectionLayers is the traced run of a section workload. In interleaved
// rounds it re-times the op with the workload's sinks added one at a time
// (step k attaches sinks[:k]); each step's cost is its per-round difference
// from the step before. The last step is the workload's own op, whose
// section calls give the per-section times. A separate pass with a
// registry-free monitor counts the machine events.
func (b *bench) sectionLayers(secs []section, sinks []string) error {
	steps := len(sinks) + 1
	label := func(k int) string {
		if k == 0 {
			return "no sinks"
		}
		return "+" + sinks[k-1]
	}
	if b.trace != nil {
		for k := 0; k < steps; k++ {
			b.trace.AddThreadName(0, k, label(k))
		}
	}
	times := make([][]sample, steps)
	secTimes := map[string][]float64{}
	var results []any
	var scrapes scrapeLog
	violations := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < b.seconds; round++ {
		for i := 0; i < steps; i++ {
			k := i
			if round%2 == 1 { // alternate the direction so that drift cancels in the deltas
				k = steps - 1 - i
			}
			r, err := b.sessionOp(secs, sinks[:k])
			b.record(err)
			times[k] = append(times[k], r.sample)
			violations += r.violations
			scrapes.add(r.scrapes)
			for j, sec := range secs {
				b.span(k, sec.name, r.starts[j], r.ends[j])
			}
			b.span(k, "op "+label(k), slices.MinFunc(r.starts, time.Time.Compare), slices.MaxFunc(r.ends, time.Time.Compare))
			if k == steps-1 {
				results = r.results
				for j, sec := range secs {
					secTimes[sec.name] = append(secTimes[sec.name], r.ends[j].Sub(r.starts[j]).Seconds())
				}
			}
		}
	}

	opS := median(seconds(times[steps-1]))
	for name, ts := range secTimes {
		b.layers["experiments."+name+"_s"] = median(ts)
	}
	for k := 1; k < steps; k++ {
		var ds, da []float64
		for r := range times[k] {
			ds = append(ds, times[k][r].Seconds-times[k-1][r].Seconds)
			da = append(da, float64(times[k][r].Allocs)-float64(times[k-1][r].Allocs))
		}
		q := quartiles(ds)
		name := "sinks." + sinks[k-1]
		b.layers[name+"_s_per_op"] = q[1]
		b.layers[name+"_s_per_op_iqr"] = q[2] - q[0]
		b.layers[name+"_allocs_per_op"] = median(da)
	}
	if slices.Contains(sinks, "monitor") {
		b.layers["monitor.violations"] = float64(violations)
	}
	if len(scrapes.LatencyS) > 0 {
		b.layers["monitor.scrape_s_p50"] = median(scrapes.LatencyS)
		b.layers["monitor.scrape_late_s_max"] = scrapes.LateMaxS
		b.layers["monitor.scrape_bytes"] = median(scrapes.BodyBytes)
		b.detail["scrapes"] = scrapes
	}
	if w := netWords(results); w > 0 {
		b.layers["dist.net_words_per_op"] = float64(w)
		b.layers["dist.ns_per_net_word"] = opS * 1e9 / float64(w)
	}

	events, err := b.countEvents(secs, steps)
	if err != nil {
		return err
	}
	if events > 0 {
		b.layers["machine.events_per_op"] = float64(events)
		b.layers["machine.ns_per_event"] = opS * 1e9 / float64(events)
	}
	b.detail["ladder_op_s"] = ladderDetail(times, label)
	return nil
}

// countEvents runs secs once with a registry-free monitor as the only sink
// and returns the counter-bearing machine events it saw.
func (b *bench) countEvents(secs []section, tid int) (int64, error) {
	sess := experiments.NewSession()
	mon := monitor.New(machine.GenericLevels(3), nil)
	sess.SetMonitor(mon)
	start := time.Now()
	_, err := measure(func() {
		for _, sec := range secs {
			sec.run(sess)
		}
	})
	b.span(tid, "event count pass", start, time.Now())
	if err != nil {
		return 0, fmt.Errorf("event count pass: %w", err)
	}
	return mon.TotalEvents(), nil
}

// netWords sums the network words of a dist op's rows.
func netWords(results []any) (w int64) {
	for _, r := range results {
		switch rows := r.(type) {
		case []experiments.Table1Measured:
			for _, x := range rows {
				w += x.NetWords
			}
		case []experiments.Table2Measured:
			for _, x := range rows {
				w += x.NetWords
			}
		case []experiments.LURow:
			for _, x := range rows {
				w += x.NetWords
			}
		case []experiments.NUMARow:
			for _, x := range rows {
				w += x.NetWords
			}
		}
	}
	return w
}

func ladderDetail(times [][]sample, label func(int) string) map[string][]float64 {
	out := map[string][]float64{}
	for k, ts := range times {
		out[label(k)] = seconds(ts)
	}
	return out
}

// replaySink buffers the access stream of one Figure 2 point and replays
// each full buffer into the cache inside its own span, so that the point's
// wall time splits into trace emission (core and machine, outside the
// spans) and cache simulation (inside). Bookkeeping between the two is
// timed apart and charged to neither.
type replaySink struct {
	b      *bench
	c      *cache.FALRU
	buf    []access.Op
	prev   uint64
	same   int64
	allocs uint64
	replay time.Duration
	book   time.Duration
}

func (r *replaySink) Access(addr uint64, write bool) {
	r.buf = append(r.buf, access.Op{Addr: addr, Write: write})
	if len(r.buf) == cap(r.buf) {
		r.flush()
	}
}

func (r *replaySink) flush() {
	t0 := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, op := range r.buf {
		r.c.Access(op.Addr, op.Write)
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	r.allocs += m1.Mallocs - m0.Mallocs
	r.same += sameLine(r.buf, figLine, &r.prev)
	r.buf = r.buf[:0]
	r.b.span(0, "cache.FALRU replay", start, end)
	r.replay += end.Sub(start)
	r.book += time.Since(t0) - end.Sub(start)
}

// sameLine counts the ops that touch the same cache line as the op before
// them; *prev carries the previous op's line + 1 across calls (0: none).
func sameLine(ops []access.Op, lineBytes uint64, prev *uint64) (n int64) {
	for _, op := range ops {
		l := op.Addr/lineBytes + 1
		if l == *prev {
			n++
		}
		*prev = l
	}
	return n
}

// fig2Layers is the traced run of fig2: it re-drives every point of the
// figure through a replaySink and checks each point's stats against the pin.
// One op is one sweep over all points.
func (b *bench) fig2Layers() error {
	want, err := b.pinnedFig2()
	if err != nil {
		return err
	}
	if b.trace != nil {
		b.trace.AddThreadName(0, 0, "fig2 points")
	}
	var accesses, hits, victimsM, same int64
	var allocs uint64
	var emit, replay time.Duration
	ops := 0
	start := time.Now()
	for ; ops == 0 || time.Since(start).Seconds() < b.seconds; ops++ {
		var errs []error
		for p := range want {
			for j, mid := range figMids {
				rs := &replaySink{b: b, c: cache.NewFALRU(figL3, figLine), buf: make([]access.Op, 0, 1<<16)}
				t0 := time.Now()
				fig2Trace(p, mid).Run(rs)
				rs.flush()
				rs.c.FlushDirty()
				t1 := time.Now()
				b.span(0, fmt.Sprintf("%s mid=%d", want[p].Name, mid), t0, t1)
				st := rs.c.Stats()
				errs = append(errs, checkPoint(want[p], j, st))
				accesses += st.Accesses
				hits += st.Hits
				victimsM += st.VictimsM
				same += rs.same
				allocs += rs.allocs
				replay += rs.replay
				emit += t1.Sub(t0) - rs.replay - rs.book
			}
		}
		b.record(errors.Join(errs...))
	}
	n := float64(accesses)
	b.layers["core.trace_ns_per_access"] = float64(emit.Nanoseconds()) / n
	b.layers["cache.falru_ns_per_access"] = float64(replay.Nanoseconds()) / n
	b.layers["cache.falru_allocs_per_access"] = float64(allocs) / n
	b.layers["cache.accesses_per_op"] = n / float64(ops)
	b.layers["cache.hit_ratio"] = float64(hits) / n
	b.layers["cache.victims_m_per_op"] = float64(victimsM) / float64(ops)
	b.layers["access.same_line_ratio"] = float64(same) / n
	return nil
}

// sparseLayers is the traced run of cache-sparse: each op's two replays are
// timed apart.
func (b *bench) sparseLayers() error {
	if b.trace != nil {
		b.trace.AddThreadName(0, 0, "cache-sparse ops")
	}
	var falruS, clockS float64
	var falruAllocs uint64
	ops := 0
	start := time.Now()
	for ; ops == 0 || time.Since(start).Seconds() < b.seconds; ops++ {
		var got sparseStats
		var t [4]time.Time
		fs, ferr := measure(func() {
			t[0] = time.Now()
			got.FALRU = replay(newFALRU(), b.stream)
			t[1] = time.Now()
		})
		cs, cerr := measure(func() {
			t[2] = time.Now()
			got.Clock3 = replay(newClock3(), b.stream)
			t[3] = time.Now()
		})
		b.span(0, "cache.FALRU replay", t[0], t[1])
		b.span(0, "cache.Cache CLOCK3 replay", t[2], t[3])
		b.span(0, "op", t[0], t[3])
		b.record(errors.Join(ferr, cerr,
			statsMatch("falru", got.FALRU, b.want.FALRU),
			statsMatch("clock3", got.Clock3, b.want.Clock3)))
		falruS += fs.Seconds
		clockS += cs.Seconds
		falruAllocs += fs.Allocs
	}
	n := float64(ops) * float64(len(b.stream))
	var prev uint64
	b.layers["cache.falru_ns_per_access"] = falruS * 1e9 / n
	b.layers["cache.clock3_ns_per_access"] = clockS * 1e9 / n
	b.layers["cache.falru_allocs_per_access"] = float64(falruAllocs) / n
	b.layers["cache.accesses_per_op"] = 2 * float64(len(b.stream))
	b.layers["cache.hit_ratio"] = float64(b.want.FALRU.Hits) / float64(b.want.FALRU.Accesses)
	b.layers["cache.clock3_hit_ratio"] = float64(b.want.Clock3.Hits) / float64(b.want.Clock3.Accesses)
	b.layers["cache.victims_m_per_op"] = float64(b.want.FALRU.VictimsM)
	b.layers["access.same_line_ratio"] = float64(sameLine(b.stream, sparseLine, &prev)) / float64(len(b.stream))
	return nil
}

// record counts one traced-run op and its failure, if any.
func (b *bench) record(err error) {
	b.attempts++
	if err != nil {
		b.fails = append(b.fails, err)
	}
}
