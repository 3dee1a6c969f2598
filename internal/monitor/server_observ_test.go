package monitor

import (
	"bufio"
	"bytes"
	"context"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"writeavoid/internal/machine"
)

// Readiness is distinct from liveness: a fresh server is alive but not ready,
// a source attachment makes it ready, and Close makes it drain — in that
// order, and observable on /readyz while /healthz never changes.
func TestReadyzLifecycle(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "no recorder attached") {
		t.Fatalf("fresh /readyz = %d %q, want 503 no recorder attached", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != 200 {
		t.Fatal("fresh server must be live")
	}

	srv.SetHistograms(NewHistogramRecorder(machine.GenericLevels(2)))
	if code, body := get(t, ts, "/readyz"); code != 200 || strings.TrimSpace(string(body)) != "ready" {
		t.Fatalf("attached /readyz = %d %q, want 200 ready", code, body)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != 200 {
		t.Fatal("draining server is still live")
	}
}

// Every source registration marks the server ready, not just SetHistograms.
func TestReadyzAttachPaths(t *testing.T) {
	attach := map[string]func(*Server){
		"SetMonitor":  func(s *Server) { s.SetMonitor(New(machine.GenericLevels(2), NewRegistry())) },
		"SetSnapshot": func(s *Server) { s.SetSnapshot(func() machine.Snapshot { return machine.Snapshot{} }) },
		"RankSource":  func(s *Server) { s.RankSource("r", func() []machine.Snapshot { return nil }) },
	}
	for name, fn := range attach {
		srv := NewServer()
		ts := httptest.NewServer(srv.Handler())
		fn(srv)
		if code, _ := get(t, ts, "/readyz"); code != 200 {
			t.Errorf("%s did not mark ready (%d)", name, code)
		}
		ts.Close()
	}
}

// /debug/pprof is opt-in: absent by default, served once EnablePprof runs.
func TestPprofGating(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := get(t, ts, "/debug/pprof/"); code != 404 {
		t.Fatalf("/debug/pprof/ without EnablePprof = %d, want 404", code)
	}
	srv.EnablePprof()
	srv.EnablePprof() // idempotent: must not re-register (which panics)
	code, body := get(t, ts, "/debug/pprof/")
	if code != 200 || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/ after EnablePprof = %d", code)
	}
	if code, _ := get(t, ts, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// A server with a histogram recorder attached exposes the distribution
// families, the SSE counters, build info, and the runtime bridge — and the
// whole exposition passes the validator with the promised >= 4 histogram
// families. The phase histogram _sum must equal the recorder's cumulative
// snapshot to the word (the exactness acceptance bar, end to end over HTTP).
func TestMetricsHistogramFamilies(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	rec := NewHistogramRecorder(machine.GenericLevels(2))
	rec.SetClock(clock.Now)
	driveRecorder(t, rec, clock)

	srv := NewServer()
	srv.SetHistograms(rec)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	info, err := ValidateExposition(body)
	if err != nil {
		t.Fatalf("/metrics does not validate: %v\n%s", err, body)
	}
	if info.HistogramFamilies < 4 {
		t.Fatalf("histogram families = %d, want >= 4", info.HistogramFamilies)
	}
	for _, want := range []string{
		"# TYPE wa_phase_duration_seconds histogram",
		"# TYPE wa_phase_load_words histogram",
		"# TYPE wa_phase_store_words histogram",
		"# TYPE wa_sse_queue_depth histogram",
		"wa_phase_load_words_sum 400",
		"wa_phase_store_words_sum 47",
		"wa_phase_load_words_count 2",
		"wa_sse_sent_total 0",
		"wa_sse_dropped_total 0",
		"wa_build_info{go_version=",
		"wa_go_goroutines ",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// syncBuffer lets the test read what concurrent request handlers logged.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The logging middleware records method, path, and status for every request,
// and keeps serving identical bytes.
func TestRequestLoggingMiddleware(t *testing.T) {
	var logBuf syncBuffer
	srv := NewServer()
	srv.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz through middleware = %d %q", code, body)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("/readyz through middleware lost its 503")
	}
	logged := logBuf.String()
	for _, want := range []string{
		"http request", "method=GET", "path=/healthz", "status=200",
		"path=/readyz", "status=503",
	} {
		if !strings.Contains(logged, want) {
			t.Fatalf("log missing %q:\n%s", want, logged)
		}
	}
}

// SSE must keep streaming through the logging middleware: the wrapped writer
// forwards http.Flusher, so the open-comment and a broadcast record reach the
// client while the handler is still running.
func TestMiddlewarePreservesSSEFlusher(t *testing.T) {
	var logBuf syncBuffer
	srv := NewServer()
	srv.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": stream open") {
		t.Fatalf("first SSE line = %q, %v", line, err)
	}
	for srv.Events().Clients() == 0 {
		time.Sleep(time.Millisecond)
	}
	srv.MarkPhase("mid")
	for {
		line, err = r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream died before the phase event arrived: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			if !strings.Contains(line, `"phase":"mid"`) {
				t.Fatalf("data line = %q", line)
			}
			break
		}
	}
}

// wa_build_info carries its facts as labels on a constant-1 sample.
func TestBuildInfoSample(t *testing.T) {
	s := buildInfoSample()
	if s.family != "wa_build_info" || s.value != 1 {
		t.Fatalf("sample = %+v", s)
	}
	labels := map[string]string{}
	for _, lp := range s.labels {
		labels[lp.key] = lp.value
	}
	if !strings.HasPrefix(labels["go_version"], "go") {
		t.Fatalf("go_version = %q", labels["go_version"])
	}
	if labels["module"] != "writeavoid" {
		t.Fatalf("module = %q", labels["module"])
	}
}

// The runtime bridge reads real values: goroutines and gomaxprocs are
// positive on any live process, and the families match the registry.
func TestRuntimeSamples(t *testing.T) {
	var e exposition
	e.readRuntime()
	byFamily := map[string]float64{}
	for _, s := range e.scalars {
		byFamily[s.family] = s.value
	}
	if byFamily["wa_go_goroutines"] < 1 || byFamily["wa_go_gomaxprocs"] < 1 {
		t.Fatalf("goroutines/gomaxprocs = %v", byFamily)
	}
	if byFamily["wa_go_memory_total_bytes"] <= 0 {
		t.Fatalf("memory total = %v", byFamily["wa_go_memory_total_bytes"])
	}
	for _, h := range e.hists {
		if h.family != "wa_go_gc_pauses_seconds" {
			t.Fatalf("unexpected runtime histogram %q", h.family)
		}
	}
}

// rebucket folds runtime/metrics buckets conservatively: each count lands in
// the smallest ladder bucket covering the runtime bucket's upper edge, and
// the +Inf runtime bucket is priced at its lower edge.
func TestRebucket(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{3, 2, 1},
		Buckets: []float64{0, 0.5, 64, math.Inf(1)},
	}
	bounds := []float64{1, 10, 100}
	snap := rebucket(h, bounds)
	// upper edges: 0.5 → le=1 (idx 0); 64 → le=100 (idx 2); +Inf → overflow (idx 3)
	want := []int64{3, 0, 2, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", snap.Counts, want)
		}
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	// sum: 3*0.5 + 2*64 + 1*64 (the +Inf bucket priced at its lower edge)
	if want := 3*0.5 + 2*64.0 + 1*64.0; snap.Sum != want {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
	if snap.Count != countOf(snap) {
		t.Fatal("Count disagrees with bucket totals")
	}
}

func countOf(s HistogramSnapshot) int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}
