package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"writeavoid/internal/cache"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
)

// Server is the live observability endpoint of a run: one stdlib
// http.Handler exposing
//
//	/metrics     Prometheus text exposition of every registered source
//	/snapshot    cumulative machine.Snapshot (+ per-rank and cache views) as JSON
//	/spans       the span-tree JSON last published by the profiler
//	/events      Server-Sent Events bridging the streaming JSONL records
//	/violations  the conformance monitor's violation list as JSON
//	/healthz     liveness
//	/readyz      readiness: 503 until a source attaches and during Close drain
//
// Sources are pull-based functions (snapshot, per-rank, violations) that
// must be safe to call from HTTP goroutines — the Monitor and a dist
// machine's rank reads are — plus push-based publications (spans, cache stats) for state
// that is not concurrency-safe to read live; the run goroutine publishes
// rendered bytes at phase boundaries instead.
type Server struct {
	mux    *http.ServeMux
	broker *Broker

	mu        sync.Mutex
	mon       *Monitor
	snapFn    func() machine.Snapshot
	violFn    func() []Violation
	ranks     map[string]func() []machine.Snapshot
	cacheSt   map[string]cache.Stats
	spansHead []byte // the closed roots' JSON, shared with the publisher
	spansTail []byte // the open root's JSON and the closing bracket
	hists     *HistogramRecorder
	logger    *slog.Logger
	attached  bool // a recorder/source has been wired → ready
	draining  bool // Close started → not ready
	pprofOn   bool

	// routes is the registered endpoint list the index page renders; every
	// mux registration goes through handle() so the two can never disagree
	// (a test asserts exactly that).
	routes []routeEntry

	// flight is the wired flight recorder (nil: the flight endpoints answer
	// 404); bundles the frozen forensic captures in arrival order, byViol
	// the same bundles keyed by violation ID for /violations/{id}/dump.
	flight    *flight.Recorder
	bundles   []*flight.Bundle
	byViol    map[int64]*flight.Bundle
	bundleSeq int64

	// depth is the wa_sse_queue_depth histogram, fed by the broker on every
	// enqueue; owned here so it renders even before any recorder attaches.
	depth *Histogram

	srv *http.Server
	ln  net.Listener
}

// routeEntry is one registered endpoint and its index-page description.
type routeEntry struct {
	pattern string // the mux pattern, method/wildcards included
	path    string // the display path the index lists
	desc    string
}

// NewServer builds a server with no sources; register them before or after
// Start, all methods are safe concurrently.
func NewServer() *Server {
	s := &Server{
		broker:  NewBroker(),
		ranks:   map[string]func() []machine.Snapshot{},
		cacheSt: map[string]cache.Stats{},
		byViol:  map[int64]*flight.Bundle{},
		depth:   NewHistogram(DepthBuckets),
	}
	s.broker.ObserveDepth(s.depth)
	s.mux = http.NewServeMux()
	s.handle("/", "/", "this endpoint index", s.handleIndex)
	s.handle("/healthz", "/healthz", "liveness", s.handleHealthz)
	s.handle("/readyz", "/readyz", "readiness (503 until a recorder attaches / while draining)", s.handleReadyz)
	s.handle("/metrics", "/metrics", "Prometheus text exposition", s.handleMetrics)
	s.handle("/snapshot", "/snapshot", "cumulative machine snapshot (JSON)", s.handleSnapshot)
	s.handle("/spans", "/spans", "span-tree attribution (JSON)", s.handleSpans)
	s.handle("/violations", "/violations", "theory-conformance violations (JSON; ?since=ID pages)", s.handleViolations)
	s.handle("/violations/{id}/dump", "/violations/{id}/dump", "forensic bundle for one violation (JSON)", s.handleViolationDump)
	s.handle("/flight", "/flight", "flight-recorder status and captured bundles (JSON)", s.handleFlight)
	s.handle("/flight/capture", "/flight/capture", "freeze the ring on demand (POST; returns the bundle)", s.handleFlightCapture)
	s.handle("/events", "/events", "live metrics stream (SSE)", s.broker.ServeHTTP)
	return s
}

// handle registers one endpoint on the mux and in the index's route list.
func (s *Server) handle(pattern, path, desc string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.routes = append(s.routes, routeEntry{pattern: pattern, path: path, desc: desc})
}

// Routes lists every registered endpoint path (index display form, in
// registration order) — the contract the index-page test asserts against.
func (s *Server) Routes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.routes))
	for i, r := range s.routes {
		out[i] = r.path
	}
	return out
}

// Handler exposes the routing for tests (httptest.NewServer(s.Handler()));
// the request-logging middleware (SetLogger) wraps every route.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.root) }

// SetLogger installs a structured logger; every subsequent request is logged
// at Info with method, path, status, bytes, and duration. Nil disables.
func (s *Server) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	s.logger = l
	s.mu.Unlock()
}

// EnablePprof mounts net/http/pprof's profiling handlers under /debug/pprof/
// — opt-in (wabench -pprof), since profile endpoints on a metrics port are a
// foot-gun in shared environments. Call at most once, before Start.
func (s *Server) EnablePprof() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pprofOn {
		return
	}
	s.pprofOn = true
	s.handle("/debug/pprof/", "/debug/pprof", "Go profiling endpoints (opt-in)", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// root is the outermost handler: the logging middleware around the mux. The
// wrapped writer forwards http.Flusher so SSE streaming keeps working.
func (s *Server) root(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	logger := s.logger
	s.mu.Unlock()
	if logger == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	logger.Info("http request",
		"method", r.Method, "path", r.URL.Path,
		"status", status, "bytes", sw.bytes, "duration", time.Since(start))
}

// statusWriter records the status and byte count a handler produced, and
// keeps the Flusher contract SSE needs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// markAttachedLocked flips readiness on the first source registration.
func (s *Server) markAttachedLocked() { s.attached = true }

// SetMonitor wires a conformance monitor as the snapshot and violation
// source in one call.
func (s *Server) SetMonitor(m *Monitor) {
	s.mu.Lock()
	s.mon = m
	s.snapFn = m.Snapshot
	s.violFn = m.Violations
	s.markAttachedLocked()
	s.mu.Unlock()
}

// SetSnapshot installs a cumulative-snapshot source (for runs without a
// monitor).
func (s *Server) SetSnapshot(fn func() machine.Snapshot) {
	s.mu.Lock()
	s.snapFn = fn
	s.markAttachedLocked()
	s.mu.Unlock()
}

// SetHistograms wires a HistogramRecorder: its phase-distribution families
// join /metrics next to the scalar counters.
func (s *Server) SetHistograms(h *HistogramRecorder) {
	s.mu.Lock()
	s.hists = h
	s.markAttachedLocked()
	s.mu.Unlock()
}

// RankSource registers a live per-rank snapshot source under a run name
// (dist.Machine.RankSnapshots is safe to pass directly: it reads the copies
// each rank publishes under its own lock at every barrier, so a scrape sees
// each rank's whole supersteps).
func (s *Server) RankSource(name string, fn func() []machine.Snapshot) {
	s.mu.Lock()
	s.ranks[name] = fn
	s.markAttachedLocked()
	s.mu.Unlock()
}

// PublishRanks registers a static per-rank view: a copy of snaps taken now,
// for runs that already finished.
func (s *Server) PublishRanks(name string, snaps []machine.Snapshot) {
	cp := append([]machine.Snapshot(nil), snaps...)
	s.RankSource(name, func() []machine.Snapshot { return cp })
}

// PublishCacheStats publishes (or replaces) one cache simulator's stats
// under a name; simulators are not concurrency-safe, so owners push copies.
func (s *Server) PublishCacheStats(name string, st cache.Stats) {
	s.mu.Lock()
	s.cacheSt[name] = st
	s.mu.Unlock()
}

// PublishSpans publishes rendered span-tree JSON for /spans: the body is
// head followed by tail. Span trees are not safe for concurrent reads, so
// the run goroutine renders and pushes; the server keeps both slices
// without copying them. The publisher must never rewrite head[:len(head)]
// or tail afterwards, but it may append to head's backing array past
// len(head): Session renders each closed root once into an append-only
// head and only the open root into each fresh tail.
func (s *Server) PublishSpans(head, tail []byte) {
	s.mu.Lock()
	s.spansHead, s.spansTail = head, tail
	s.mu.Unlock()
}

// Events returns the io.Writer side of the SSE bridge: point stream
// recorders (or dist aggregate streams) here and every JSONL record becomes
// one SSE message on /events.
func (s *Server) Events() *Broker { return s.broker }

// MarkPhase broadcasts a named phase-boundary event on /events, so even
// sections that drive no hierarchy (cache-simulated figures) are visible on
// the wire as they pass.
func (s *Server) MarkPhase(name string) {
	b, _ := json.Marshal(struct {
		Phase string `json:"phase"`
	}{name})
	s.broker.Broadcast("phase", b)
}

// Start listens on addr (":0" for an ephemeral port) and serves in the
// background; the returned address is the bound one. Call Close to stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{
		Handler: s.Handler(),
		// A slowloris client trickling header bytes (or never sending any)
		// must not hold a connection forever; 5s covers any real scraper.
		ReadHeaderTimeout: 5 * time.Second,
		// Full-request deadline. Long-lived SSE streams survive it: the read
		// deadline only gates reading the request, and /events is a GET whose
		// request is fully consumed before the handler starts writing.
		ReadTimeout: 30 * time.Second,
		// Reap idle keep-alive connections a client abandoned.
		IdleTimeout: 2 * time.Minute,
		// WriteTimeout stays 0 deliberately: it would apply to the response
		// as a whole and sever every SSE stream after the deadline.
		WriteTimeout: 0,
	}
	srv := s.srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}

// closeTimeout bounds the graceful drain in Close: long enough for any
// in-flight scrape or POST body to finish, short enough that shutdown never
// hangs on a handler that will not return (an SSE client on a run-scoped
// broker this server does not own).
const closeTimeout = 2 * time.Second

// Close stops accepting connections, drains in-flight requests gracefully,
// and shuts the SSE broker down so no handler goroutine outlives the server.
// Ordering matters: /readyz flips 503 first (load balancers stop routing),
// then the broker's done signal unblocks every parked /events handler — SSE
// connections are never "idle" in http.Server's sense, so without this the
// drain would wait the full deadline on them — and only then does Shutdown
// wait for the remaining handlers (a /metrics scrape mid-body, a POST
// /flight/capture mid-read) to complete. Handlers still running at the deadline are severed
// with srv.Close. Safe without Start, and idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.draining = true // /readyz flips 503 before the listener dies
	s.mu.Unlock()
	s.broker.Shutdown()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Deadline expired with handlers still in flight (run-scoped SSE
		// streams park in brokers this server never shuts down): sever them.
		return srv.Close()
	}
	return nil
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	routes := append([]routeEntry(nil), s.routes...)
	s.mu.Unlock()
	width := 0
	for _, rt := range routes {
		if len(rt.path) > width {
			width = len(rt.path)
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "writeavoid observability server")
	for _, rt := range routes {
		fmt.Fprintf(w, "  %-*s  %s\n", width, rt.path, rt.desc)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz splits readiness from liveness: the process is alive from the
// first byte (healthz), but a scraper or load-balancer should not route to it
// until a recorder/source is attached, and should stop once Close starts
// draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	attached, draining := s.attached, s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !attached:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no recorder attached")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleMetrics encodes the body straight from the sources: it gathers
// them into an exposition taken from a pool (each scrape its own, so
// concurrent scrapes share nothing) and writes family by family into the
// exposition's buffer, escaping labels and formatting values in place, so
// a body costs no allocation per sample however many rank snapshots are
// published (TestMetricsAllocationsFlatInRanks). The bytes are what the
// sample-list writer kept in prometheus_ref_test.go writes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	e := expositions.Get().(*exposition)
	s.gather(e)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// On an error the headers are committed; the truncated body fails a
	// scraper's parse, which is the detectable outcome we want.
	_ = e.write(w)
	e.reset()
	expositions.Put(e)
}

// expositions pools the per-scrape exposition, so a steady scraper reuses
// its buffer and slices.
var expositions = sync.Pool{New: func() any { return new(exposition) }}

// gather reads every source into e, in the order the body lists them: the
// registrations under the lock, then the sources themselves outside it.
func (s *Server) gather(e *exposition) {
	s.mu.Lock()
	mon, snapFn, violFn, hr := s.mon, s.snapFn, s.violFn, s.hists
	fr, bundleCount := s.flight, len(s.bundles)
	for name, fn := range s.ranks {
		e.ranks = append(e.ranks, rankRun{name: name, fn: fn})
	}
	for name, st := range s.cacheSt {
		e.caches = append(e.caches, cacheRun{name: name, st: st})
	}
	s.mu.Unlock()
	slices.SortFunc(e.ranks, func(a, b rankRun) int { return strings.Compare(a.name, b.name) })
	slices.SortFunc(e.caches, func(a, b cacheRun) int { return strings.Compare(a.name, b.name) })

	e.scalars = append(e.scalars, metricSample{family: "wa_up", value: 1})
	if snapFn != nil {
		e.snap, e.hasSnap = snapFn(), true
	}
	for i := range e.ranks {
		e.ranks[i].snaps = e.ranks[i].fn()
	}
	if mon != nil {
		e.scalars = append(e.scalars,
			metricSample{family: "wa_monitor_events_total", value: float64(mon.PeekTotalEvents())},
			metricSample{family: "wa_monitor_phases_total", value: float64(mon.Phases())},
		)
	}
	if violFn != nil {
		e.scalars = append(e.scalars,
			metricSample{family: "wa_violations_total", value: float64(len(violFn()))})
	}
	if fr != nil {
		st := fr.Stats()
		e.scalars = append(e.scalars,
			metricSample{family: "wa_flight_events_total", value: float64(st.TotalEvents)},
			metricSample{family: "wa_flight_dropped_events_total", value: float64(st.Dropped)},
			metricSample{family: "wa_flight_ring_events", value: float64(st.Len)},
			metricSample{family: "wa_flight_captures_total", value: float64(st.Captures)},
			metricSample{family: "wa_flight_bundles_total", value: float64(bundleCount)},
		)
	}
	e.scalars = append(e.scalars,
		metricSample{family: "wa_sse_clients", value: float64(s.broker.Clients())},
		metricSample{family: "wa_sse_sent_total", value: float64(s.broker.Sent())},
		metricSample{family: "wa_sse_dropped_total", value: float64(s.broker.Dropped())},
		buildInfoSample(),
	)
	if hr != nil {
		for _, fh := range hr.Histograms() {
			e.hists = append(e.hists, histogramSample{family: fh.Family, h: fh.Snap})
		}
	}
	e.hists = append(e.hists, histogramSample{family: "wa_sse_queue_depth", h: s.depth.Snapshot()})
	e.readRuntime()
}

// snapshotDoc is the /snapshot JSON document.
type snapshotDoc struct {
	Machine *machine.Snapshot             `json:"machine,omitempty"`
	Ranks   map[string][]machine.Snapshot `json:"ranks,omitempty"`
	Cache   map[string]cache.Stats        `json:"cache,omitempty"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snapFn := s.snapFn
	rankFns := make(map[string]func() []machine.Snapshot, len(s.ranks))
	for name, fn := range s.ranks {
		rankFns[name] = fn
	}
	doc := snapshotDoc{Cache: make(map[string]cache.Stats, len(s.cacheSt))}
	for name, st := range s.cacheSt {
		doc.Cache[name] = st
	}
	s.mu.Unlock()
	if snapFn != nil {
		snap := snapFn()
		doc.Machine = &snap
	}
	if len(rankFns) > 0 {
		doc.Ranks = make(map[string][]machine.Snapshot, len(rankFns))
		for name, fn := range rankFns {
			doc.Ranks[name] = fn()
		}
	}
	if len(doc.Cache) == 0 {
		doc.Cache = nil
	}
	writeJSON(w, doc)
}

func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	head, tail := s.spansHead, s.spansTail
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if len(head)+len(tail) == 0 {
		tail = []byte("[]")
	}
	_, _ = w.Write(head)
	_, _ = w.Write(tail)
}

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	violFn := s.violFn
	s.mu.Unlock()
	var since int64
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	// Filtering on the generic source keeps any violFn working; monitor IDs
	// are dense and monotonic, so this is the same page ViolationsSince cuts.
	violations := []Violation{}
	if violFn != nil {
		for _, v := range violFn() {
			if v.ID > since {
				violations = append(violations, v)
			}
		}
	}
	writeJSON(w, violations)
}

// --- flight recorder ---------------------------------------------------------

// SetFlight wires the flight recorder: /flight reports its ring state, the
// wa_flight_* families join /metrics, and /flight/capture freezes it on
// demand.
func (s *Server) SetFlight(f *flight.Recorder) {
	s.mu.Lock()
	s.flight = f
	s.markAttachedLocked()
	s.mu.Unlock()
}

// bundleSummary is one bundle's line in /flight and in the SSE broadcast.
type bundleSummary struct {
	Seq         int64  `json:"seq"`
	Reason      string `json:"reason"`
	ViolationID int64  `json:"violationId,omitempty"`
	Check       string `json:"check,omitempty"`
	Kernel      string `json:"kernel,omitempty"`
	Phase       string `json:"phase,omitempty"`
	Events      int    `json:"events"`
	Dropped     int64  `json:"dropped"`
	Ranks       int    `json:"ranks,omitempty"`
}

func summarize(b *flight.Bundle) bundleSummary {
	sum := bundleSummary{
		Seq:     b.Seq,
		Reason:  b.Reason,
		Phase:   b.Window.Phase,
		Events:  len(b.Window.Events),
		Dropped: b.Window.Dropped,
		Ranks:   len(b.Ranks),
	}
	if v := b.Violation; v != nil {
		sum.ViolationID = v.ID
		sum.Check = v.Check
		sum.Kernel = v.Kernel
	}
	return sum
}

// AddBundle stores a frozen forensic bundle, assigns its monotonic sequence
// number, indexes it by violation ID when it has one (first capture per
// violation wins), and broadcasts a "flight" SSE event announcing the
// capture. Returns the assigned sequence number. Safe from any goroutine.
func (s *Server) AddBundle(b *flight.Bundle) int64 {
	s.mu.Lock()
	s.bundleSeq++
	b.Seq = s.bundleSeq
	s.bundles = append(s.bundles, b)
	if v := b.Violation; v != nil {
		if _, dup := s.byViol[v.ID]; !dup {
			s.byViol[v.ID] = b
		}
	}
	s.markAttachedLocked()
	s.mu.Unlock()
	if data, err := json.Marshal(summarize(b)); err == nil {
		s.broker.Broadcast("flight", data)
	}
	return b.Seq
}

// flightDoc is the /flight JSON document.
type flightDoc struct {
	Stats   flight.Stats    `json:"stats"`
	Bundles []bundleSummary `json:"bundles"`
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	f := s.flight
	bundles := append([]*flight.Bundle(nil), s.bundles...)
	s.mu.Unlock()
	if f == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	doc := flightDoc{Stats: f.Stats(), Bundles: make([]bundleSummary, 0, len(bundles))}
	for _, b := range bundles {
		doc.Bundles = append(doc.Bundles, summarize(b))
	}
	writeJSON(w, doc)
}

// handleFlightCapture freezes the ring on demand (Peek semantics: no
// hierarchy sync from an HTTP goroutine, so the window is current to the
// last flush boundary) and stores + returns the resulting bundle.
func (s *Server) handleFlightCapture(w http.ResponseWriter, r *http.Request) {
	// Capturing mutates server state, so the method check is explicit here
	// (a method-scoped mux pattern would fall through to the "/" catch-all
	// and 404 instead of answering 405).
	if r.Method != http.MethodPost {
		http.Error(w, "capture requires POST", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	f := s.flight
	s.mu.Unlock()
	if f == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	b := &flight.Bundle{
		Reason:     "manual",
		CapturedAt: time.Now().UTC(),
		Window:     f.Peek("manual"),
	}
	s.AddBundle(b)
	writeJSON(w, b)
}

func (s *Server) handleViolationDump(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad violation id: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	b := s.byViol[id]
	s.mu.Unlock()
	if b == nil {
		http.Error(w, fmt.Sprintf("no bundle for violation %d", id), http.StatusNotFound)
		return
	}
	writeJSON(w, b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
