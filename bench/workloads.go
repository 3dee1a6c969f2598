package main

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
	"writeavoid/internal/experiments"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: one op after another on one goroutine.
type workload struct {
	name, why string
	// serves: the op reports to the observability server under scraping.
	serves bool
	// setup prepares a run's inputs and runs one warm-up op, which is not
	// among the measured ops; setup_s times it with the server start.
	setup func(b *bench) error
	// expect computes, untimed and once per run, what the ops are checked
	// against beyond the pins.
	expect func(b *bench) error
	// op runs one timed op; an error fails the op.
	op func(b *bench) (sample, error)
	// layers is the traced run: it fills b.layers.
	layers func(b *bench) error
}

var workloads = []*workload{
	fig2Workload(),
	cacheSparseWorkload(),
	sectionWorkload("kernels",
		"the counted hierarchy sections with every sink attached: where the per-sink counter folds run",
		kernelSections, kernelSinks),
	sectionWorkload("kernels-bare",
		"the same sections with no sink: catches cost moved into the bare machine and CounterSet path",
		kernelSections, nil),
	sectionWorkload("dist",
		"the dist, pmm and plu machines with per-rank profiler and flight groups",
		distSections, distSinks),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// section is one experiments.Session method an op calls; its result is
// checked against the pin of the same name.
type section struct {
	name  string
	run   func(*experiments.Session) any
	check func(any) error // optional, beyond the pin
}

var kernelSections = []section{
	{name: "sec2", run: func(s *experiments.Session) any { return s.Sec2Report() }},
	{name: "sec3", run: func(s *experiments.Session) any { return s.Sec3(false) }},
	{name: "sec4", run: func(s *experiments.Session) any { return s.Sec4(false) }},
	{name: "sec9", run: func(s *experiments.Session) any { return s.Sec9Report(false) }},
	{name: "omega", run: func(s *experiments.Session) any { return s.Omega(false) }},
	{name: "krylov", run: func(s *experiments.Session) any { return s.Krylov(false) }},
}

var distSections = []section{
	{name: "table1", run: func(s *experiments.Session) any { return s.Table1(false) }},
	{name: "table2", run: func(s *experiments.Session) any { return s.Table2(false) }},
	{name: "lu", run: func(s *experiments.Session) any { return s.LU(false) }},
	// One call measures both placements; the argument only marks a row.
	{name: "numa", run: func(s *experiments.Session) any { return s.NUMA(false, 2, machine.PlaceBlock) }},
}

// fig2Section runs the paper's headline figure at its quick size, as wabench
// -quick does; its input is fixed, so the seed has no effect on it.
var fig2Section = section{
	name:  "fig2",
	run:   func(s *experiments.Session) any { return s.Fig2(true) },
	check: func(v any) error { return prop61(v.([]experiments.FigPanel)) },
}

// prop61 checks the Proposition 6.1 anchor: each write-avoiding panel writes
// back exactly its output lines at the largest middle dimension.
func prop61(panels []experiments.FigPanel) error {
	for _, p := range panels[2:] {
		end := p.Points[len(p.Points)-1]
		if end.VictimsM != end.WriteLB {
			return fmt.Errorf("prop 6.1: %s at mid %d writes back %d lines, want writeLB %d",
				p.Name, end.Mid, end.VictimsM, end.WriteLB)
		}
	}
	return nil
}

// bench is one run's state.
type bench struct {
	seconds float64
	seed    uint64
	rng     *rand.Rand // permutes section order, op by op
	pins    pins

	srv *monitor.Server
	scr *scraper

	trace *profile.TraceBuilder // nil unless the traced run writes a file
	t0    time.Time

	stream []access.Op // cache-sparse input
	want   sparseStats // cache-sparse expected op result

	layers   map[string]float64
	detail   map[string]any // extra traced-run detail for the run document
	attempts int            // ops the traced run made
	fails    []error        // failed ops of the traced run
}

// startServer starts the observability server the observed sinks report to,
// and makes the scraper that loads it.
func (b *bench) startServer() error {
	b.srv = monitor.NewServer()
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("starting the observability server: %w", err)
	}
	b.scr = newScraper(addr.String())
	return nil
}

func (b *bench) close() {
	if b.scr != nil {
		b.scr.halt()
		b.scr.client.CloseIdleConnections()
	}
	if b.srv != nil {
		_ = b.srv.Close() // the run is over; nothing depends on a clean drain
	}
}

// sample is one timed op.
type sample struct {
	Seconds float64 `json:"s"`
	Allocs  uint64  `json:"allocs"`
	Bytes   uint64  `json:"bytes"`
	RSSMB   float64 `json:"rss_mb"`
}

// measure runs f and returns its wall time, heap allocations and peak RSS.
// Before f, untimed, it collects garbage and returns the freed memory to the
// OS, so that every op starts from the same state and one op's GC overshoot
// does not raise the next one's peak. Allocations by any goroutine running
// meanwhile (the HTTP server) count too. A panic in f becomes the error.
func measure(f func()) (s sample, err error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		f()
	}()
	s.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	s.Allocs = m1.Mallocs - m0.Mallocs
	s.Bytes = m1.TotalAlloc - m0.TotalAlloc
	s.RSSMB = peakRSSMB()
	return s, err
}

// opResult is one session op with everything the traced run needs.
type opResult struct {
	sample
	results    []any       // per section, indexed like the section list
	starts     []time.Time // per section
	ends       []time.Time
	violations int
	scrapes    scrapeLog
}

// sessionOp runs secs once, in a seed-permuted order, on a fresh Session
// carrying the named sinks, then checks every result against its pin.
// Closing the sinks is part of the timed op.
func (b *bench) sessionOp(secs []section, sinks []string) (opResult, error) {
	o := newObserved(sinks, b.srv)
	r := opResult{
		results: make([]any, len(secs)),
		starts:  make([]time.Time, len(secs)),
		ends:    make([]time.Time, len(secs)),
	}
	order := b.rng.Perm(len(secs))
	var viol []monitor.Violation
	var opErr, finishErr error
	body := func() {
		for _, i := range order {
			r.starts[i] = time.Now()
			r.results[i] = secs[i].run(o.sess)
			r.ends[i] = time.Now()
		}
		viol, finishErr = o.finish()
	}
	// The scraper runs exactly while ops with the server sink do.
	if o.server {
		b.scr.start()
	} else {
		b.scr.halt()
	}
	r.sample, opErr = measure(body)
	if o.server {
		r.scrapes = b.scr.check()
	}

	errs := []error{opErr, finishErr, r.scrapes.err}
	r.violations = len(viol)
	if len(viol) > 0 {
		errs = append(errs, fmt.Errorf("conformance: %d violations, first %s", len(viol), viol[0]))
	}
	for i, sec := range secs {
		if r.results[i] == nil {
			continue
		}
		errs = append(errs, b.pins.check(sec.name, r.results[i]))
		if sec.check != nil {
			errs = append(errs, sec.check(r.results[i]))
		}
	}
	return r, errors.Join(errs...)
}

// sectionWorkload builds a workload whose op calls secs on a Session with the
// given sinks (nil: a bare Session); with "server" among them the op also
// runs under the scraper.
func sectionWorkload(name, why string, secs []section, sinks []string) *workload {
	return &workload{
		name: name, why: why,
		serves: slices.Contains(sinks, "server"),
		setup: func(b *bench) error {
			_, err := b.sessionOp(secs, sinks)
			return err
		},
		op: func(b *bench) (sample, error) {
			r, err := b.sessionOp(secs, sinks)
			return r.sample, err
		},
		layers: func(b *bench) error { return b.sectionLayers(secs, sinks) },
	}
}

// Figure 2 geometry, as experiments.Fig2(quick=true) builds it: 256 x mid x
// 256 multiplications traced into a 128 KiB fully associative LRU cache with
// 64-byte lines. The traced run and the warm-up drive these traces directly;
// the pins tie every point to the op's result.
const (
	figOuter = 256
	figLine  = 64
	figL3    = 128 << 10
	figL2    = 16
	figL1    = 8
)

var figMids = []int{8, 16, 32, 64, 128, 256}

// fig2Trace returns the trace of panel p (in Fig2's panel order) at mid.
func fig2Trace(p, mid int) interface{ Run(access.Sink) } {
	switch p {
	case 0:
		return core.NewCOMatMulTrace(figOuter, mid, figOuter, figL1, figLine)
	case 1:
		return core.NewMatMulTrace(figOuter, mid, figOuter, figLine,
			core.TraceLevel{Block: 32, ContractionInner: false},
			core.TraceLevel{Block: figL1, ContractionInner: true})
	}
	return core.NewMatMulTrace(figOuter, mid, figOuter, figLine,
		core.TraceLevel{Block: experiments.Fig2Blocks[p-2], ContractionInner: true},
		core.TraceLevel{Block: figL2, ContractionInner: false},
		core.TraceLevel{Block: figL1, ContractionInner: false})
}

// pinnedFig2 decodes the pinned Figure 2 panels.
func (b *bench) pinnedFig2() ([]experiments.FigPanel, error) {
	var panels []experiments.FigPanel
	if err := json.Unmarshal(b.pins["fig2"], &panels); err != nil {
		return nil, fmt.Errorf("pin fig2: %w", err)
	}
	if want := 2 + len(experiments.Fig2Blocks); len(panels) != want {
		return nil, fmt.Errorf("pin fig2: %d panels, want %d", len(panels), want)
	}
	return panels, nil
}

// checkPoint compares one simulated point against its pin.
func checkPoint(want experiments.FigPanel, j int, st cache.Stats) error {
	w := want.Points[j]
	if st.VictimsM != w.VictimsM || st.VictimsE != w.VictimsE || st.FillsE != w.FillsE {
		return fmt.Errorf("%s mid %d: victims M/E %d/%d fills %d, pinned %d/%d/%d",
			want.Name, w.Mid, st.VictimsM, st.VictimsE, st.FillsE, w.VictimsM, w.VictimsE, w.FillsE)
	}
	return nil
}

// fig2Workload runs Figure 2 on a bare Session: Fig2 feeds its traces
// straight into cache.FALRU and never attaches the Session's sinks, so sinks
// and a scraper would add only HTTP and GC noise to the op.
func fig2Workload() *workload {
	secs := []section{fig2Section}
	w := sectionWorkload("fig2",
		"the paper's headline figure: 4.5e8 simulated accesses, 99.7% hits, split between core trace emission and cache.FALRU",
		secs, nil)
	// A whole Figure 2 op takes seconds, so the warm-up drives only the
	// smallest point of each panel: the same trace and cache code, 1/60 of
	// the accesses.
	w.setup = func(b *bench) error {
		want, err := b.pinnedFig2()
		if err != nil {
			return err
		}
		var errs []error
		for p := range want {
			c := cache.NewFALRU(figL3, figLine)
			fig2Trace(p, figMids[0]).Run(access.SinkFunc(c.Access))
			c.FlushDirty()
			errs = append(errs, checkPoint(want[p], 0, c.Stats()))
		}
		return errors.Join(errs...)
	}
	w.layers = (*bench).fig2Layers
	return w
}

// The cache-sparse stream: 2^22 accesses, a quarter of them to a 1024-line
// hot set and the rest spread over 16 times the cache's capacity, all at
// random lines of a 40-bit line space; a quarter are writes.
const (
	sparseAccesses = 1 << 22
	sparseHotLines = 1024
	sparseSpread   = 16
	sparseLineBits = 40
	sparseBytes    = 128 << 10
	sparseLine     = 64
	sparseAssoc    = 16
)

// sparseStream generates the cache-sparse input from the seed.
func sparseStream(seed uint64) []access.Op {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	randLines := func(n int) []uint64 {
		ls := make([]uint64, n)
		for i := range ls {
			ls[i] = rng.Uint64N(1 << sparseLineBits)
		}
		return ls
	}
	hot := randLines(sparseHotLines)
	cold := randLines(sparseSpread * sparseBytes / sparseLine)
	ops := make([]access.Op, sparseAccesses)
	for i := range ops {
		set := cold
		if rng.IntN(4) == 0 {
			set = hot
		}
		line := set[rng.IntN(len(set))]
		ops[i] = access.Op{Addr: line*sparseLine + 8*rng.Uint64N(sparseLine/8), Write: rng.IntN(4) == 0}
	}
	return ops
}

// sparseStats is one cache-sparse op's result.
type sparseStats struct {
	FALRU  cache.Stats
	Clock3 cache.Stats
}

func newFALRU() *cache.FALRU { return cache.NewFALRU(sparseBytes, sparseLine) }

func newClock3() *cache.Cache {
	return cache.New(cache.Config{SizeBytes: sparseBytes, LineBytes: sparseLine,
		Assoc: sparseAssoc, Policy: cache.PolicyClock3})
}

// replay feeds ops into c and flushes it.
func replay(c cache.Simulator, ops []access.Op) cache.Stats {
	for _, op := range ops {
		c.Access(op.Addr, op.Write)
	}
	c.FlushDirty()
	return c.Stats()
}

func cacheSparseWorkload() *workload {
	return &workload{
		name: "cache-sparse",
		why:  "the cache layer fed arbitrary sparse addresses, as watrace sim does: hit ratio 0.14, 25% writes",
		setup: func(b *bench) error {
			b.stream = sparseStream(b.seed)
			_, err := measure(func() {
				b.want = sparseStats{replay(newFALRU(), b.stream), replay(newClock3(), b.stream)}
			})
			return err
		},
		// Ops must repeat the warm-up's CLOCK3 stats and the reference's
		// FALRU stats.
		expect: func(b *bench) error {
			ref := lruReference(b.stream)
			errs := []error{
				statsMatch("falru", b.want.FALRU, ref),
				sparseInvariants(b.stream, b.want.Clock3),
			}
			b.want.FALRU = ref
			if b.seed == 1 {
				errs = append(errs, b.pins.check("cache-sparse/seed1", b.want))
			}
			return errors.Join(errs...)
		},
		op: func(b *bench) (sample, error) {
			var got sparseStats
			s, err := measure(func() {
				got = sparseStats{replay(newFALRU(), b.stream), replay(newClock3(), b.stream)}
			})
			return s, errors.Join(err,
				statsMatch("falru", got.FALRU, b.want.FALRU),
				statsMatch("clock3", got.Clock3, b.want.Clock3))
		},
		layers: (*bench).sparseLayers,
	}
}

func statsMatch(name string, got, want cache.Stats) error {
	if got != want {
		return fmt.Errorf("%s stats %+v, want %+v", name, got, want)
	}
	return nil
}

// sparseInvariants checks the counts any write-back cache must report for
// ops, whatever its replacement policy.
func sparseInvariants(ops []access.Op, st cache.Stats) error {
	var writes int64
	for _, op := range ops {
		if op.Write {
			writes++
		}
	}
	n := int64(len(ops))
	if st.Accesses != n || st.Writes != writes || st.Reads != n-writes ||
		st.Hits+st.Misses != n || st.FillsE != st.Misses {
		return fmt.Errorf("clock3 stats %+v inconsistent with %d accesses, %d writes", st, n, writes)
	}
	return nil
}

// lruReference replays ops through a plain map-and-list fully associative LRU
// write-back cache of the cache-sparse geometry: the independent reference
// cache.FALRU must match on every seed.
func lruReference(ops []access.Op) cache.Stats {
	type entry struct {
		line  uint64
		dirty bool
	}
	const capacity = sparseBytes / sparseLine
	var st cache.Stats
	lru := list.New()
	where := make(map[uint64]*list.Element, capacity)
	for _, op := range ops {
		st.Accesses++
		if op.Write {
			st.Writes++
		} else {
			st.Reads++
		}
		line := op.Addr / sparseLine
		if e, ok := where[line]; ok {
			st.Hits++
			e.Value.(*entry).dirty = e.Value.(*entry).dirty || op.Write
			lru.MoveToFront(e)
			continue
		}
		st.Misses++
		if lru.Len() == capacity {
			v := lru.Remove(lru.Back()).(*entry)
			delete(where, v.line)
			if v.dirty {
				st.VictimsM++
			} else {
				st.VictimsE++
			}
		}
		st.FillsE++
		where[line] = lru.PushFront(&entry{line: line, dirty: op.Write})
	}
	for e := lru.Front(); e != nil; e = e.Next() {
		if e.Value.(*entry).dirty {
			st.VictimsM++
			st.Flushed++
		}
	}
	return st
}
