// Command wabench regenerates every table and figure of the evaluation of
// "Write-Avoiding Algorithms" (Carson et al., 2015) on the simulated
// substrates of this repository.
//
// Usage:
//
//	wabench [-quick] [-json] [-stream file] [-trace file] [-profile]
//	        [-serve addr] [-check off|warn|strict] [-benchjson file]
//	        [-flight N] [-flight-dump DIR]
//	        [-compare OLD.json NEW.json] [-pprof]
//	        [-log text|json] [-log-level debug|info|warn|error]
//	        [-sockets S] [-placement block|rr] [section ...]
//	wabench dashboards -out DIR [-check]
//
// The sections are the entries of the experiments section table
// (experiments.SectionNames), and `wabench -h` lists them. They run in table
// order whatever the order of the arguments; "all" (the default) runs every
// one, and an unknown name exits 2 before anything runs. -quick shrinks
// problem sizes so the whole run finishes in well under a minute; the full
// run takes a few minutes, dominated by the Figure 2/5 cache simulations.
// -json skips the text sections and instead emits machine-readable counter
// snapshots of a fixed counted phase suite, so it takes no section
// arguments.
//
// The omega section prices the write-efficient algorithm family (extsort's
// small-write sort, dp's LCS and Floyd–Warshall schedules) against the
// classical variants under the explicit write-cost parameter ω, asserting
// every load/store count exactly through the conformance monitor.
//
// -sockets partitions the distributed NUMA section's processors over S
// sockets and -placement picks the rank-to-socket mapping (block: contiguous
// rank ranges; rr: round-robin). The numa section compares both placements on
// the 2.5DMML3 multiply — identical word totals, different local/remote
// splits, different asymmetric-link prices — and asserts the W2 network floor
// per socket as well as globally. It runs under "all" only when -sockets >= 2
// (so default runs are byte-identical to the flat machine); naming it
// explicitly runs it with at least two sockets. A -sockets below 1, like a
// negative -flight, exits 2 before anything runs.
//
// -stream writes live metrics as JSON lines ("-" = stdout) while the run
// executes: every -stream-every events, and at each section boundary, one
// record carrying the delta and cumulative machine snapshots. The summed
// deltas equal the final cumulative record exactly; tail the file to watch a
// long run's write/read trajectories mid-flight.
//
// -trace writes a Chrome trace-event JSON profile of the whole run ("-" =
// stdout): one duration event per algorithm phase span (panels, supersteps,
// solver phases), per-interface word-count counter tracks, and one pid/tid
// pair per processor of the distributed sections. Open the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing, or validate it with `watrace
// checktrace`. -profile prints the same attribution as an ASCII span-tree
// table on stdout after the sections finish. At most one output may claim
// stdout: -json, -stream -, -trace - and -benchjson - are mutually exclusive.
//
// -check evaluates the paper's bounds online while the run executes: a
// conformance monitor observes every counted hierarchy and, at each section
// boundary, asserts the registered predictions (Theorem 1, the Θ(output)
// write floor and ceiling, the n³/√M traffic bound, Theorem 2's store
// fraction, the Proposition 6.1 write-back counts, the distributed W1/W2
// floors) against that section's exact counter delta. "warn" reports
// violations on stderr; "strict" additionally exits nonzero when any bound
// failed — the CI gate.
//
// -flight N attaches the always-on flight recorder: a fixed ring keeping the
// last N events of every observed hierarchy plus the open span stack and the
// running phase delta, at constant overhead per batch. When the conformance
// monitor records a violation, the ring freezes into a forensic bundle —
// violation metadata, the decoded event window, the exact phase delta the
// check evaluated, and (for distributed sections) every rank's ring
// correlated by superstep. Bundles are served at /violations/{id}/dump and
// listed at /flight when -serve is on; -flight-dump DIR additionally writes
// each bundle as DIR/violation-<id>.json plus a .trace.json Perfetto export,
// which is how the CI strict gates preserve forensics on failure. Only a
// monitor trips a dump, so -flight-dump also needs -check warn|strict or
// -serve. With -benchjson, -flight N times the suite with the recorder
// attached, so the compare gate prices its steady-state cost.
//
// -serve starts a live observability HTTP server on addr (":0" picks a
// port, printed to stderr) for the duration of the run:
//
//	/metrics     Prometheus text exposition of the cumulative counters
//	/snapshot    machine snapshot + per-rank and cache views as JSON
//	/spans       span-tree attribution JSON (with -trace/-profile)
//	/events      live metrics records + phase marks as Server-Sent Events
//	/violations  the conformance monitor's violation list as JSON
//	/healthz     liveness
//
// -benchjson is a standalone mode: instead of the sections it times the
// benchmark workload suite (the same workloads as `go test -bench`) and
// writes ns/op plus counted events/op per workload as JSON to the given
// file ("-" = stdout), for CI artifact upload.
//
// -compare is a standalone mode diffing two -benchjson reports:
//
//	wabench -compare OLD.json NEW.json
//
// It prints a per-workload table and exits 1 when any workload regressed:
// ns/op above -compare-ns-ratio (default 1.30) times the old value, or
// events/op moved by more than -compare-events-eps relative (default 1e-9 —
// the counted event stream is deterministic, so any drift means the engine
// changed behavior, not speed). Workloads missing from NEW fail the gate;
// workloads only in NEW are reported but never fail it. This is the CI
// throughput gate against the committed pre-refactor baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"writeavoid/internal/costmodel"
	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with an exit code: deferred cleanups (stream flushes, trace
// writing, server shutdown) must run before the process exits, so nothing
// below calls os.Exit directly on the happy paths.
func run(args []string) (rc int) {
	// Subcommands dispatch before flag parsing claims their arguments.
	if len(args) > 0 && args[0] == "dashboards" {
		return runDashboards(args[1:])
	}
	fs := flag.NewFlagSet("wabench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wabench [flags] [section ...]\n"+
			"       wabench dashboards -out DIR [-check]\n\n"+
			"sections, run in this order (default all):\n  %s all\n\nflags:\n",
			strings.Join(experiments.SectionNames(), " "))
		fs.PrintDefaults()
	}
	quick := fs.Bool("quick", false, "run reduced problem sizes")
	hwKind := fs.String("hw", "nvm", "hardware preset for analytic tables: dram|nvm")
	jsonOut := fs.Bool("json", false, "emit per-phase recorder snapshots as JSON")
	streamTo := fs.String("stream", "", "stream live metrics as JSON lines to this file (- = stdout)")
	streamEvery := fs.Int64("stream-every", 100000, "events between periodic stream records (<=0: only phase marks)")
	traceTo := fs.String("trace", "", "write a Chrome trace-event JSON profile of the run to this file (- = stdout)")
	profileOut := fs.Bool("profile", false, "print a per-phase attribution summary after the run")
	serveAddr := fs.String("serve", "", "serve live observability HTTP on this address (e.g. :8080, :0 = ephemeral)")
	checkMode := fs.String("check", "off", "theory-conformance checking: off | warn | strict (strict exits nonzero on violation)")
	benchJSON := fs.String("benchjson", "", "standalone mode: run the benchmark suite, write ns/op + events/op JSON here (- = stdout)")
	compare := fs.Bool("compare", false, "standalone mode: diff two -benchjson reports (args: OLD.json NEW.json); exits 1 on regression")
	compareNsRatio := fs.Float64("compare-ns-ratio", 1.30, "with -compare: fail a workload whose ns/op exceeds this multiple of the old value")
	compareEvEps := fs.Float64("compare-events-eps", 1e-9, "with -compare: fail a workload whose events/op drifts by more than this relative epsilon")
	sockets := fs.Int("sockets", 1, "sockets for the numa section (>=2 also enables it under \"all\")")
	placementFlag := fs.String("placement", "block", "rank-to-socket placement for the numa section: block | rr")
	logFormat := fs.String("log", "text", "diagnostic log format: text | json")
	logLevel := fs.String("log-level", "info", "diagnostic log level: debug | info | warn | error")
	pprofOn := fs.Bool("pprof", false, "with -serve: expose /debug/pprof profiling endpoints")
	flightEvents := fs.Int("flight", 0, "attach an always-on flight recorder keeping the last N events per hierarchy (0 = off)")
	flightDump := fs.String("flight-dump", "", "with -flight: write violation forensic bundles (JSON + Perfetto trace) into this directory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the error and the usage
	}

	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
		return 2
	}
	// One Session owns this run's observability wiring end to end; nothing
	// is process-global, so an embedding caller can run many sessions
	// concurrently.
	sess := experiments.NewSession()
	sess.SetLogger(logger)

	placement, err := machine.ParsePlacement(*placementFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
		return 2
	}

	switch *checkMode {
	case "off", "warn", "strict":
	default:
		fmt.Fprintf(os.Stderr, "wabench: unknown -check %q (want off|warn|strict)\n", *checkMode)
		return 2
	}
	if *sockets < 1 {
		fmt.Fprintf(os.Stderr, "wabench: -sockets %d: want 1 or more\n", *sockets)
		return 2
	}
	if *flightEvents < 0 {
		fmt.Fprintf(os.Stderr, "wabench: -flight %d: want a ring size, or 0 for none\n", *flightEvents)
		return 2
	}
	if *pprofOn && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "wabench: -pprof requires -serve")
		return 2
	}
	if *flightDump != "" && *flightEvents <= 0 {
		fmt.Fprintln(os.Stderr, "wabench: -flight-dump requires -flight N")
		return 2
	}
	if *flightDump != "" && *checkMode == "off" && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "wabench: -flight-dump needs a monitor to trip it: add -check warn|strict or -serve")
		return 2
	}
	if *jsonOut && fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "wabench: -json runs a fixed phase suite; it takes no section arguments")
		return 2
	}
	// Exactly one writer may own stdout; catching the contradiction here
	// beats interleaving three JSON dialects into one stream.
	stdoutClaims := []string{}
	if *jsonOut {
		stdoutClaims = append(stdoutClaims, "-json")
	}
	if *streamTo == "-" {
		stdoutClaims = append(stdoutClaims, "-stream -")
	}
	if *traceTo == "-" {
		stdoutClaims = append(stdoutClaims, "-trace -")
	}
	if *benchJSON == "-" {
		stdoutClaims = append(stdoutClaims, "-benchjson -")
	}
	if len(stdoutClaims) > 1 {
		fmt.Fprintf(os.Stderr, "wabench: %v all write to stdout; pick one (or give the others file names)\n", stdoutClaims)
		return 2
	}
	if *benchJSON != "" && (*jsonOut || fs.NArg() > 0) {
		fmt.Fprintln(os.Stderr, "wabench: -benchjson is a standalone mode; it cannot combine with -json or section arguments")
		return 2
	}
	if *compare {
		if *benchJSON != "" || *jsonOut {
			fmt.Fprintln(os.Stderr, "wabench: -compare is a standalone mode; it cannot combine with -benchjson or -json")
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "wabench: -compare needs exactly two arguments: OLD.json NEW.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *compareNsRatio, *compareEvEps)
	}

	var hw costmodel.HW
	switch *hwKind {
	case "dram":
		hw = costmodel.DRAMOnly()
	case "nvm":
		hw = costmodel.NVMBacked(8)
	default:
		fmt.Fprintf(os.Stderr, "unknown -hw %q (want dram|nvm)\n", *hwKind)
		return 2
	}

	if *benchJSON != "" {
		return runBenchJSON(*benchJSON, *quick, *flightEvents)
	}

	opts := experiments.Options{Quick: *quick, HW: hw, Sockets: *sockets, Placement: placement}
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	sections, err := experiments.SelectSections(names, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wabench: %v\n", err)
		return 2
	}

	if *streamTo != "" {
		var w io.Writer = os.Stdout
		if *streamTo != "-" {
			f, err := os.Create(*streamTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer f.Close()
			w = f
		}
		stream := machine.NewStreamRecorder(w, machine.GenericLevels(3), *streamEvery)
		sess.SetStream(stream)
		defer func() {
			if err := stream.Close(); err != nil {
				logger.Error("closing metrics stream", "err", err)
				if rc == 0 {
					rc = 1
				}
			}
		}()
	}

	if *traceTo != "" || *profileOut {
		prof := profile.NewProfiler(machine.GenericLevels(3))
		sess.SetProfile(prof)
		defer func() {
			if *profileOut {
				fmt.Print(prof.Summary())
			}
			if *traceTo == "" {
				return
			}
			w := io.Writer(os.Stdout)
			var f *os.File
			if *traceTo != "-" {
				var err error
				if f, err = os.Create(*traceTo); err != nil {
					fmt.Fprintln(os.Stderr, err)
					if rc == 0 {
						rc = 1
					}
					return
				}
				w = f
			}
			werr := prof.WriteTrace(w)
			var cerr error
			if f != nil {
				cerr = f.Close()
			}
			if werr != nil || cerr != nil {
				logger.Error("writing trace", "writeErr", werr, "closeErr", cerr)
				if rc == 0 {
					rc = 1
				}
			}
		}()
	}

	// The conformance monitor observes whenever checking or serving is on:
	// the server's /violations and /snapshot endpoints are backed by it even
	// when the check verdict is not enforced.
	var mon *monitor.Monitor
	if *checkMode != "off" || *serveAddr != "" {
		reg := experiments.ConformanceChecks(*quick)
		if *jsonOut {
			reg = jsonSuiteChecks()
		}
		mon = monitor.New(machine.GenericLevels(3), reg)
		sess.SetMonitor(mon)
	}

	var srv *monitor.Server
	if *serveAddr != "" {
		srv = monitor.NewServer()
		srv.SetLogger(logger.With("component", "http"))
		if *pprofOn {
			srv.EnablePprof()
		}
		if mon != nil {
			srv.SetMonitor(mon)
		}
		// The distribution recorder turns exact per-phase deltas into the
		// wa_phase_* histograms next to the monitor's scalar counters.
		hists := monitor.NewHistogramRecorder(machine.GenericLevels(3))
		if *jsonOut {
			// The -json phase suite's store floors (same numbers the
			// conformance registry asserts) feed the floor-slack histogram.
			hists.SetFloor("matmul-wa", 64*64)
			hists.SetFloor("matmul-nonwa", 64*64)
			hists.SetFloor("extsort", 1<<12)
		}
		sess.SetHistograms(hists)
		srv.SetHistograms(hists)
		// A second stream recorder feeds the SSE bridge, so /events carries
		// the same JSONL records a -stream file would, phase marks included.
		sse := machine.NewStreamRecorder(srv.Events(), machine.GenericLevels(3), *streamEvery)
		sess.AddStream(sse)
		sess.SetServer(srv)
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			logger.Error("starting observability server", "err", err)
			return 1
		}
		logger.Info("serving observability", "url", fmt.Sprintf("http://%s/", addr),
			"pprof", *pprofOn)
		defer func() {
			hists.Finish()  // close the last phase before the final scrapes
			_ = sse.Close() // final record reaches /events subscribers
			_ = srv.Close()
		}()
	}

	// The flight recorder is the run's black box: always on once enabled, it
	// rides every observed hierarchy; a conformance violation freezes the
	// ring into a forensic bundle, published on the server and — with
	// -flight-dump — written to disk as JSON plus a Perfetto trace.
	if *flightEvents > 0 {
		fr := flight.New(*flightEvents, machine.GenericLevels(3))
		sess.SetFlight(fr)
		if srv != nil {
			srv.SetFlight(fr)
		}
		if mon != nil {
			dumpDir := *flightDump
			mon.SetViolationHook(func(v monitor.Violation) {
				b := sess.FlightCapture(v)
				if b == nil {
					return
				}
				if srv != nil {
					srv.AddBundle(b)
				}
				if dumpDir != "" {
					dumpBundle(dumpDir, b, logger)
				}
			})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildJSONReport(sess, *quick, *hwKind, hw)); err != nil {
			logger.Error("encoding JSON report", "err", err)
			return 1
		}
		return conformanceVerdict(sess, mon, *checkMode, logger)
	}

	for _, sec := range sections {
		start := time.Now()
		fmt.Print(sec.Run(sess, opts))
		fmt.Printf("[%s done in %v]\n\n", sec.Name, time.Since(start).Round(time.Millisecond))
	}
	return conformanceVerdict(sess, mon, *checkMode, logger)
}

// dumpBundle writes one forensic bundle into dir as violation-<id>.json plus
// violation-<id>.trace.json (the Perfetto export; bundle-<seq>.* when the
// bundle has no violation), creating dir on first use. Dump failures are
// logged, never fatal — the run's verdict must not hinge on forensic I/O.
func dumpBundle(dir string, b *flight.Bundle, logger *slog.Logger) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logger.Error("flight dump", "dir", dir, "err", err)
		return
	}
	stem := fmt.Sprintf("bundle-%d", b.Seq)
	if b.Violation != nil {
		stem = fmt.Sprintf("violation-%d", b.Violation.ID)
	}
	write := func(name string, render func(io.Writer) error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			logger.Error("flight dump", "file", path, "err", err)
			return
		}
		werr := render(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			logger.Error("flight dump", "file", path, "writeErr", werr, "closeErr", cerr)
			return
		}
		logger.Info("flight bundle dumped", "file", path)
	}
	write(stem+".json", b.WriteJSON)
	write(stem+".trace.json", b.WriteTrace)
}

// conformanceVerdict closes the run's last phase (Session.Finish) and turns
// the monitor's violations into the process outcome: silent under "off",
// reported under "warn", reported and nonzero under "strict". It is the last
// sequential step of both output modes.
func conformanceVerdict(sess *experiments.Session, mon *monitor.Monitor, mode string, logger *slog.Logger) int {
	viol := sess.Finish()
	if mon == nil {
		return 0
	}
	if mode == "off" {
		return 0
	}
	if len(viol) == 0 {
		logger.Info("conformance ok", "phases", mon.Phases(), "violations", 0)
		return 0
	}
	for _, v := range viol {
		logger.Warn("conformance violation", "violation", v.String())
	}
	logger.Error("conformance failed", "violations", len(viol), "phases", mon.Phases())
	if mode == "strict" {
		return 1
	}
	return 0
}

// jsonSuiteChecks is the conformance registry for the -json counted phase
// suite (buildJSONReport): the same bounds the text sections assert, sized to
// the suite's fixed phases.
func jsonSuiteChecks() *monitor.Registry {
	reg := monitor.NewRegistry()
	reg.Register(monitor.Theorem1(1))
	// 64x64 matmul at M=768: output floor, WA store ceiling, Hong-Kung floor.
	reg.Register(monitor.OutputFloor("matmul-wa", 64*64))
	reg.Register(monitor.WACeiling("matmul-wa", 64*64, 1.25))
	reg.Register(monitor.CATraffic("matmul-wa", 64, 64, 64, 768, 1))
	reg.Register(monitor.OutputFloor("matmul-nonwa", 64*64))
	// n=1024 FFT: Theorem 2 with out-degree 2 and 2n input words.
	reg.Register(monitor.StoreFraction("fft-external", 2, 2*1024, 1))
	// 2^12-word external sort writes at least its output.
	reg.Register(monitor.OutputFloor("extsort", 1<<12))
	return reg
}
