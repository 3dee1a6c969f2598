// Command watrace records memory-access traces of the paper's matrix
// multiplication instruction orders and replays traces through configurable
// cache simulations.
//
// Record a trace:
//
//	watrace record -out mm.trace -order wa -m 128 -n 128 -l 128 -blocks 32,8
//	watrace record -out co.trace -order co -m 128 -n 128 -l 128 -base 8
//
// Simulate a trace (any policy, or Belady's offline OPT):
//
//	watrace sim -in mm.trace -size 65536 -line 64 -assoc 16 -policy clock3
//	watrace sim -in mm.trace -size 65536 -line 64 -policy opt
//	watrace sim -in mm.trace -size 65536 -line 64 -policy lru -fullassoc
//
// sim -stream writes periodic cache statistics as JSON lines ("-" = stdout)
// while the replay runs — one record per -stream-every accesses plus a final
// cumulative record, each pairing the delta stats with the running totals.
// OPT is offline (its answers need the whole trace), so -stream emits only
// the final record there.
//
// sim -serve starts a live observability HTTP server for the duration of the
// replay: /metrics exposes the simulator's cumulative stats as Prometheus
// text, /snapshot as JSON, and /events streams the same records a -stream
// file receives as Server-Sent Events. Stats reach the server as copies at
// each -stream-every emission, so scrapes never race the replay.
//
// sim -trace writes the replay as Chrome trace-event JSON: one span over the
// whole access sequence plus counter tracks of the cumulative hit, fill and
// write-back trajectories (ts = access index). Open it in Perfetto or
// chrome://tracing.
//
// Validate any Chrome trace produced by this repository (wabench -trace or
// sim -trace):
//
//	watrace checktrace -in trace.json -min-counters 2 -min-spans 1
//
// The reported VictimsM count (modified-line evictions plus the final dirty
// flush) is the number of cache lines written back to memory — the paper's
// LLC_VICTIMS.M.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"writeavoid/internal/access"
	"writeavoid/internal/cache"
	"writeavoid/internal/core"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "sim":
		sim(os.Args[2:])
	case "checktrace":
		checktrace(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: watrace record|sim|checktrace [flags]   (see package comment)")
	os.Exit(2)
}

// checktrace validates a Chrome trace-event JSON file (as written by
// `wabench -trace` or `watrace sim -trace`) and prints its structural
// summary; it exits nonzero on any schema violation, so CI can gate on it.
func checktrace(args []string) {
	fs := flag.NewFlagSet("checktrace", flag.ExitOnError)
	in := fs.String("in", "", "trace JSON file (required)")
	minCounters := fs.Int("min-counters", 0, "fail unless at least this many counter tracks")
	minSpans := fs.Int("min-spans", 0, "fail unless at least this many matched spans")
	fs.Parse(args) //nolint:errcheck
	if *in == "" {
		fmt.Fprintln(os.Stderr, "watrace checktrace: -in is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	info, err := profile.ValidateTraceEvent(data)
	if err != nil {
		fatal(err)
	}
	if len(info.CounterTracks) < *minCounters {
		fatal(fmt.Errorf("trace has %d counter tracks, want >= %d", len(info.CounterTracks), *minCounters))
	}
	if info.Spans < *minSpans {
		fatal(fmt.Errorf("trace has %d spans, want >= %d", info.Spans, *minSpans))
	}
	fmt.Printf("%s: %d events, %d spans, %d counter tracks, %d pids, %d threads\n",
		*in, info.Events, info.Spans, len(info.CounterTracks), len(info.Pids), info.Tids)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "output trace file (required)")
	order := fs.String("order", "wa", "instruction order: wa | multilevel | tuned | co")
	m := fs.Int("m", 128, "C rows")
	n := fs.Int("n", 128, "contraction dimension")
	l := fs.Int("l", 128, "C cols")
	blocks := fs.String("blocks", "32,8", "comma-separated block sizes, coarsest first (wa/multilevel/tuned)")
	base := fs.Int("base", 8, "base-case threshold (co)")
	line := fs.Int("line", 64, "address-space line alignment")
	fs.Parse(args) //nolint:errcheck

	if *out == "" {
		fmt.Fprintln(os.Stderr, "watrace record: -out is required")
		os.Exit(2)
	}
	var rec access.Recorder
	switch *order {
	case "co":
		core.NewCOMatMulTrace(*m, *n, *l, *base, *line).Run(&rec)
	case "wa", "multilevel", "tuned":
		bs, err := parseBlocks(*blocks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watrace record:", err)
			os.Exit(2)
		}
		levels := make([]core.TraceLevel, len(bs))
		for i, b := range bs {
			switch *order {
			case "wa": // Fig 4b: contraction inner only at the top
				levels[i] = core.TraceLevel{Block: b, ContractionInner: i == 0}
			case "multilevel": // Fig 4a: contraction inner everywhere
				levels[i] = core.TraceLevel{Block: b, ContractionInner: true}
			case "tuned": // write-oblivious: contraction outer at the top
				levels[i] = core.TraceLevel{Block: b, ContractionInner: i != 0}
			}
		}
		core.NewMatMulTrace(*m, *n, *l, *line, levels...).Run(&rec)
	default:
		fmt.Fprintf(os.Stderr, "watrace record: unknown order %q\n", *order)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := access.WriteTrace(f, rec.Ops); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d accesses to %s\n", len(rec.Ops), *out)
}

func sim(args []string) {
	// cache.New treats bad geometry as a programming error and panics;
	// for the CLI it is user input, so report it politely.
	defer func() {
		if e := recover(); e != nil {
			fmt.Fprintln(os.Stderr, "watrace:", e)
			os.Exit(2)
		}
	}()
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (required)")
	size := fs.Int("size", 128*1024, "cache size in bytes")
	line := fs.Int("line", 64, "line size in bytes")
	assoc := fs.Int("assoc", 16, "associativity (ignored with -fullassoc)")
	policy := fs.String("policy", "lru", "lru | clock3 | fifo | plru | random | opt")
	full := fs.Bool("fullassoc", false, "fully-associative (lru only, O(1))")
	wt := fs.Bool("writethrough", false, "write-through / no-write-allocate mode")
	streamTo := fs.String("stream", "", "stream periodic stats as JSON lines to this file (- = stdout)")
	streamEvery := fs.Int64("stream-every", 1<<20, "accesses between periodic stream records")
	traceTo := fs.String("trace", "", "write a Chrome trace-event JSON timeline of the replay to this file")
	serveAddr := fs.String("serve", "", "serve live observability HTTP on this address during the replay (:0 = ephemeral)")
	fs.Parse(args) //nolint:errcheck

	if *in == "" {
		fmt.Fprintln(os.Stderr, "watrace sim: -in is required")
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	// -serve exposes the replay live: /metrics and /snapshot carry the
	// simulator's cumulative stats (pushed as copies at every periodic
	// emission, so HTTP readers never touch the simulator itself) and
	// /events streams the same JSON records a -stream file receives.
	var srv *monitor.Server
	if *serveAddr != "" {
		srv = monitor.NewServer()
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "watrace: serving observability on http://%s/\n", addr)
		defer srv.Close()
	}

	var streamW io.Writer
	if *streamTo != "" {
		streamW = os.Stdout
		if *streamTo != "-" {
			sf, err := os.Create(*streamTo)
			if err != nil {
				fatal(err)
			}
			defer sf.Close()
			streamW = sf
		}
	}
	if srv != nil {
		if streamW != nil {
			streamW = io.MultiWriter(streamW, srv.Events())
		} else {
			streamW = srv.Events()
		}
	}
	var ss *statsStream
	if streamW != nil {
		ss = newStatsStream(streamW, *streamEvery)
		if srv != nil {
			name := *policy
			ss.publish = func(st cache.Stats) { srv.PublishCacheStats(name, st) }
		}
	}

	tx := newTraceExport(*traceTo, *streamEvery)

	var st cache.Stats
	switch {
	case *policy == "opt":
		ops, err := access.ReadTrace(f)
		if err != nil {
			fatal(err)
		}
		st = cache.SimulateOPT(ops, *size, *line)
		if tx != nil {
			tx.n = int64(len(ops))
		}
	case *full:
		c := cache.NewFALRU(*size, *line)
		if _, err := access.StreamTrace(f, tx.tap(c, ss.wrap(c))); err != nil {
			fatal(err)
		}
		c.FlushDirty()
		st = c.Stats()
	default:
		kind, err := parsePolicy(*policy)
		if err != nil {
			fatal(err)
		}
		c := cache.New(cache.Config{SizeBytes: *size, LineBytes: *line, Assoc: *assoc, Policy: kind, Seed: 1, WriteThrough: *wt})
		if _, err := access.StreamTrace(f, tx.tap(c, ss.wrap(c))); err != nil {
			fatal(err)
		}
		c.FlushDirty()
		st = c.Stats()
	}
	if err := ss.close(st); err != nil {
		fatal(err)
	}
	if err := tx.close(*in, *policy, st); err != nil {
		fatal(err)
	}
	fmt.Printf("accesses   %12d (%d reads, %d writes)\n", st.Accesses, st.Reads, st.Writes)
	fmt.Printf("hits       %12d (%.2f%%)\n", st.Hits, 100*float64(st.Hits)/float64(max(st.Accesses, 1)))
	fmt.Printf("fills.E    %12d\n", st.FillsE)
	fmt.Printf("victims.M  %12d (write-backs, incl. %d flushed)\n", st.VictimsM, st.Flushed)
	fmt.Printf("victims.E  %12d\n", st.VictimsE)
	if st.WriteThroughs > 0 {
		fmt.Printf("writethru  %12d (total memory writes %d)\n", st.WriteThroughs, st.MemoryWrites())
	}
}

// StatsRecord is one JSON line of a sim -stream: the delta stats of the
// accesses since the previous record next to the cumulative totals. Summing
// every delta reproduces the final record's cumulative stats exactly.
type StatsRecord struct {
	Seq   int64       `json:"seq"`
	Final bool        `json:"final,omitempty"`
	Delta cache.Stats `json:"delta"`
	Cum   cache.Stats `json:"cum"`
}

// statsStream emits StatsRecords during a trace replay. A nil *statsStream
// is inert: wrap passes the simulator's sink through and close does nothing,
// so the replay paths need no branching.
type statsStream struct {
	enc     *json.Encoder
	seq     int64
	prev    cache.Stats
	every   int64
	pending int64
	// publish, when set, additionally pushes each record's cumulative stats
	// to the observability server (a copy — the HTTP side never reads the
	// live simulator).
	publish func(cache.Stats)
}

func newStatsStream(w io.Writer, every int64) *statsStream {
	return &statsStream{enc: json.NewEncoder(w), every: every}
}

func (s *statsStream) wrap(c cache.Simulator) access.Sink {
	if s == nil {
		return c
	}
	return access.SinkFunc(func(addr uint64, write bool) {
		c.Access(addr, write)
		s.pending++
		if s.every > 0 && s.pending >= s.every {
			if err := s.emit(c.Stats(), false); err != nil {
				fatal(err)
			}
		}
	})
}

func (s *statsStream) emit(cum cache.Stats, final bool) error {
	rec := StatsRecord{Seq: s.seq, Final: final, Delta: cum.Sub(s.prev), Cum: cum}
	if err := s.enc.Encode(rec); err != nil {
		return err
	}
	if s.publish != nil {
		s.publish(cum)
	}
	s.seq++
	s.prev = cum
	s.pending = 0
	return nil
}

// close emits the final cumulative record (post-flush totals).
func (s *statsStream) close(final cache.Stats) error {
	if s == nil {
		return nil
	}
	return s.emit(final, true)
}

// traceExport renders a replay as a Chrome trace: one "replay" span over the
// whole access sequence (ts = access index, in µs) plus counter tracks of
// the cumulative hit and write-back trajectories sampled every `every`
// accesses. A nil *traceExport is inert like a nil *statsStream.
type traceExport struct {
	path    string
	every   int64
	n       int64
	samples []traceSample
}

type traceSample struct {
	n  int64
	st cache.Stats
}

func newTraceExport(path string, every int64) *traceExport {
	if path == "" {
		return nil
	}
	if every <= 0 {
		every = 1 << 20
	}
	return &traceExport{path: path, every: every}
}

func (t *traceExport) tap(c cache.Simulator, sink access.Sink) access.Sink {
	if t == nil {
		return sink
	}
	return access.SinkFunc(func(addr uint64, write bool) {
		sink.Access(addr, write)
		t.n++
		if t.n%t.every == 0 {
			t.samples = append(t.samples, traceSample{n: t.n, st: c.Stats()})
		}
	})
}

func (t *traceExport) close(in, policy string, final cache.Stats) error {
	if t == nil {
		return nil
	}
	b := profile.NewTraceBuilder()
	b.AddProcessName(0, "watrace sim")
	b.AddThreadName(0, 0, "replay")
	end := float64(t.n)
	if end == 0 {
		end = 1
	}
	b.AddSpan(0, 0, fmt.Sprintf("%s %s", policy, in), 0, end, map[string]any{
		"accesses": final.Accesses,
		"hits":     final.Hits,
		"victimsM": final.VictimsM,
	})
	for _, s := range append(t.samples, traceSample{n: t.n, st: final}) {
		ts := float64(s.n)
		b.AddCounter(0, "hits", ts, map[string]any{"hits": s.st.Hits})
		b.AddCounter(0, "writebacks", ts, map[string]any{"victimsM": s.st.VictimsM})
		b.AddCounter(0, "fills", ts, map[string]any{"fillsE": s.st.FillsE})
	}
	f, err := os.Create(t.path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseBlocks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	prev := 1 << 30
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad block size %q", p)
		}
		if v > prev {
			return nil, fmt.Errorf("block sizes must be coarsest first: %s", s)
		}
		prev = v
		out = append(out, v)
	}
	return out, nil
}

func parsePolicy(s string) (cache.PolicyKind, error) {
	switch s {
	case "lru":
		return cache.PolicyLRU, nil
	case "clock3":
		return cache.PolicyClock3, nil
	case "fifo":
		return cache.PolicyFIFO, nil
	case "plru":
		return cache.PolicyPLRU, nil
	case "random":
		return cache.PolicyRandom, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "watrace:", err)
	os.Exit(1)
}
