// Command bench is the repository benchmark: it times the simulators and
// experiment drivers behind wabench on five workloads and checks every
// result against pinned counts.
//
//	bash bench/run.sh -workload NAME -seed N [-seconds S] [-trace 0|1|FILE]
//
// From this directory, `go run . -workload NAME -seed N` does the same with
// the default Go caches. Without -workload every workload runs in turn, each
// in its own child process, so that peak RSS is per workload.
//
// A run sets up several times and reports the median set-up time, then
// repeats the workload's op while the next one, at the mean pace so far,
// ends within -seconds (at least once). It
// prints a run document (every op's time and allocations, host metadata)
// and, as the last line of standard output, a one-line JSON result with the
// end-to-end metrics. -trace 1 (or a file name, which also receives a Chrome
// trace of the run's spans) makes the run a traced one instead: it reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"writeavoid/internal/profile"
)

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 3

// endToEnd lists the end-to-end metrics an untraced run reports.
var endToEnd = []metricDef{
	{"op_s_p50", "s"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string // Chrome trace file of a traced run; "" for none
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: each in its own child process)")
	seed := fs.Int64("seed", -1, "input seed, >= 0 (required)")
	seconds := fs.Float64("seconds", 20, "how long to repeat the op after set-up")
	trace := fs.String("trace", "0", "0: end-to-end run; 1: traced run; a file name: traced run writing a Chrome trace there")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *name != "" && findWorkload(*name) == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q; valid workloads: %s\n", *name, strings.Join(names, ", "))
		return 2
	case *seed < 0:
		fmt.Fprintln(stderr, "bench: -seed is required and must be >= 0")
		return 2
	case *seconds < 0:
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0")
		return 2
	}
	cfg := config{workload: *name, seed: uint64(*seed), seconds: *seconds, traced: *trace != "0"}
	if *trace != "0" && *trace != "1" {
		cfg.traceOut = *trace
	}
	if cfg.workload == "" {
		if cfg.traceOut != "" {
			fmt.Fprintln(stderr, "bench: a -trace file needs -workload")
			return 2
		}
		return runChildren(args, names, stdout, stderr)
	}

	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	doc, err := runWorkload(findWorkload(cfg.workload), cfg, p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, f := range doc.Failures {
		fmt.Fprintf(stderr, "bench: %s: %s\n", cfg.workload, f)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(doc.result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runChildren runs every workload in its own child process of this binary,
// one after another, passing the command line through.
func runChildren(args, names []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rc := 0
	for _, n := range names {
		cmd := exec.Command(self, append(slices.Clone(args), "-workload", n)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", n, err)
			rc = 1
		}
	}
	return rc
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line summary printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// document is the full record of one run.
type document struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Host     host           `json:"host"`
	SetupS   []float64      `json:"setup_s"`
	Ops      []sample       `json:"ops,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Layers   map[string]any `json:"layers,omitempty"`
	result
}

// runWorkload makes one run of w and returns its document; an error means no
// result could be produced.
func runWorkload(w *workload, cfg config, p pins) (*document, error) {
	doc := &document{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Host: hostInfo()}
	var setupErrs []error
	var b *bench
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
		}
		b = &bench{
			seconds: cfg.seconds, seed: cfg.seed, pins: p,
			rng:    rand.New(rand.NewPCG(cfg.seed, 0x0bed)),
			layers: map[string]float64{}, detail: map[string]any{},
		}
		start := time.Now()
		if w.serves {
			if err := b.startServer(); err != nil {
				b.close()
				return nil, err
			}
		}
		err := w.setup(b)
		doc.SetupS = append(doc.SetupS, time.Since(start).Seconds())
		if err != nil {
			setupErrs = append(setupErrs, fmt.Errorf("setup: %w", err))
		}
	}
	defer b.close()
	if w.expect != nil {
		if err := w.expect(b); err != nil {
			setupErrs = append(setupErrs, fmt.Errorf("expected results: %w", err))
		}
	}

	var opErrs []error
	if cfg.traced {
		b.t0 = time.Now()
		if cfg.traceOut != "" {
			b.trace = profile.NewTraceBuilder()
			b.trace.AddProcessName(0, "bench "+w.name)
		}
		if err := w.layers(b); err != nil {
			return nil, err
		}
		doc.Attempted, opErrs = b.attempts, b.fails
		doc.Metrics = map[string]metric{}
		doc.Layers = map[string]any{}
		for _, d := range layerMetrics() {
			doc.Metrics[d.name] = metric{b.layers[d.name], d.unit}
			if v, ok := b.layers[d.name]; ok {
				doc.Layers[d.name] = metric{v, d.unit}
			}
		}
		for k, v := range b.detail {
			doc.Layers[k] = v
		}
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, b.trace); err != nil {
				return nil, err
			}
		}
	} else {
		// After the first op, another starts only if at the mean pace so far
		// it ends within -seconds. A run never overshoots by a whole op, which
		// on fig2 (11 s or more per op) would stretch 20 s runs to 35 s.
		start := time.Now()
		for n := 0; n == 0 || time.Since(start).Seconds()*float64(n+1)/float64(n) <= cfg.seconds; n++ {
			s, err := w.op(b)
			doc.Ops = append(doc.Ops, s)
			if err != nil {
				opErrs = append(opErrs, err)
			}
		}
		doc.Attempted = len(doc.Ops)
		doc.Metrics = endToEndMetrics(doc.Ops, doc.SetupS)
	}

	doc.Failed = len(opErrs)
	doc.Correct = doc.Failed == 0 && len(setupErrs) == 0
	for _, err := range append(setupErrs, opErrs...) {
		if len(doc.Failures) < 10 {
			doc.Failures = append(doc.Failures, err.Error())
		}
	}
	return doc, nil
}

// endToEndMetrics summarizes an untraced run. Allocations are means over
// the ops, as `go test -benchmem` reports them: with the scraper running,
// each op's share of scrapes varies with where its start falls in the 4 Hz
// schedule, and the mean smooths that out where a median would jump.
func endToEndMetrics(ops []sample, setup []float64) map[string]metric {
	var allocs, bytes float64
	var rss []float64
	for _, op := range ops {
		allocs += float64(op.Allocs)
		bytes += float64(op.Bytes)
		rss = append(rss, op.RSSMB)
	}
	n := float64(len(ops))
	vals := map[string]float64{
		"op_s_p50":        median(seconds(ops)),
		"setup_s":         median(setup),
		"allocs_per_op":   allocs / n,
		"alloc_mb_per_op": bytes / n / 1e6,
		"peak_rss_mb":     median(rss),
	}
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{vals[d.name], d.unit}
	}
	return m
}

func writeTrace(path string, tb *profile.TraceBuilder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// resetPeakRSS restarts the kernel's peak-RSS mark of this process, so that
// the next peakRSSMB reading covers one op: the median over ops is steady
// where the process's lifetime peak records any single GC overshoot. Where
// the reset is unavailable the reading stays the lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS (VmHWM), in MB (10^6 bytes); 0 if it cannot be read.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// host is the run document's record of where it ran, so that comparisons
// across hosts can be flagged.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the commit checked out in the working directory, when it
// is the root of a git work tree; git is kept from searching above it.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unavailable"
	}
	if _, err := os.Stat(filepath.Join(wd, ".git")); err != nil {
		return "unavailable"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

func seconds(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Seconds
	}
	return out
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the three cut points Python's statistics.quantiles(xs,
// n=4) gives (its default "exclusive" method); the middle one is the
// median. Fewer than two values give that value (or 0) three times.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		d := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q
}
