package experiments

import (
	"encoding/json"
	"log/slog"
	"time"

	"writeavoid/internal/cache"
	"writeavoid/internal/dist"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// Session carries one run's observability wiring: the experiments construct
// their hierarchies internally, so live observability is threaded through a
// Session value rather than process-global hooks — two concurrent runs each
// own a Session and never see each other's recorders. wabench installs
// stream recorders, a profiler, a conformance monitor and/or an HTTP server
// on its Session; each section calls mark at entry (a phase boundary on
// every installed sink), every serial hierarchy a section builds passes
// through observe (which attaches the sinks as recorders), cache-simulated
// sections report their finished cache.Stats through statsCheck, and
// dist-backed sections hand their finished machines to distDone for
// per-rank publication and aggregate-stream flushes. Sections backed by raw cache simulators or by concurrent machines
// contribute marks but no hierarchy events; a StreamRecorder is not safe for
// concurrent use, so dist runs reach the wire via dist.AggregateStream
// instead.
//
// The zero value is a valid no-sink session: every section runs with nothing
// attached, and a nil *Session behaves the same way.
type Session struct {
	streams []*machine.StreamRecorder
	prof    *profile.Profiler
	mon     *monitor.Monitor
	server  *monitor.Server
	hists   *monitor.HistogramRecorder
	runLog  *slog.Logger

	// The flight recorder rides the same wiring as the other sinks: observe
	// attaches it to every hierarchy, mark closes its phase BEFORE the
	// monitor's (so when a phase check raises a Violation, the flight
	// recorder's last closed PhaseDelta is word-for-word the delta the check
	// evaluated), and dist-backed sections get a per-rank flight.Group teed
	// alongside the profiler group so a violation can freeze every rank's
	// ring too.
	fr         *flight.Recorder
	flightDist *flight.Group
}

// NewSession returns an empty session with no sinks installed.
func NewSession() *Session { return &Session{} }

// SetStream installs rec as the only stream recorder (nil: removes them all).
// The caller keeps ownership: it must Close the recorder after the
// experiments finish to flush the final record.
func (s *Session) SetStream(rec *machine.StreamRecorder) {
	s.streams = nil
	if rec != nil {
		s.streams = []*machine.StreamRecorder{rec}
	}
}

// AddStream installs one more stream recorder alongside any already set —
// how wabench streams to a file and to the HTTP event bridge at once.
func (s *Session) AddStream(rec *machine.StreamRecorder) { s.streams = append(s.streams, rec) }

// SetProfile installs (or, with nil, removes) the attribution profiler. The
// caller keeps ownership and renders the trace/summary after the run.
func (s *Session) SetProfile(p *profile.Profiler) { s.prof = p }

// SetMonitor installs (or removes) the theory-conformance monitor: observed
// hierarchies feed it, marks become its phase evaluations, and cache-backed
// sections route stats checks through it.
func (s *Session) SetMonitor(m *monitor.Monitor) { s.mon = m }

// SetServer installs (or removes) the live HTTP server: marks broadcast
// phase events, dist sections publish per-rank snapshots, cache sections
// publish stats, and the profiler's span tree is pushed at each boundary.
func (s *Session) SetServer(srv *monitor.Server) { s.server = srv }

// SetHistograms installs (or removes) the distribution recorder: observed
// hierarchies feed it, marks close its phases, and every floor-type conform
// check contributes a floor-slack observation.
func (s *Session) SetHistograms(h *monitor.HistogramRecorder) { s.hists = h }

// SetLogger installs the structured run logger that dist-backed sections
// hand to their machines (dist.Config.Logger); nil removes it. Counters are
// unaffected — the logger only emits Debug records at run boundaries.
func (s *Session) SetLogger(l *slog.Logger) { s.runLog = l }

// SetFlight installs (or, with nil, removes) the always-on flight recorder.
// The caller keeps ownership; wabench reads it back through the server's
// /flight endpoint and through FlightCapture on violations.
func (s *Session) SetFlight(f *flight.Recorder) {
	s.fr = f
	if f == nil {
		s.flightDist = nil
	}
}

// runLogger returns the installed run logger, or nil.
func (s *Session) runLogger() *slog.Logger {
	if s == nil {
		return nil
	}
	return s.runLog
}

// Observe attaches every installed sink to a freshly built hierarchy and
// returns it unchanged. Exported for drivers outside this package that want
// the same wiring (wabench's -json phase suite).
func (s *Session) Observe(h *machine.Hierarchy) *machine.Hierarchy { return s.observe(h) }

func (s *Session) observe(h *machine.Hierarchy) *machine.Hierarchy {
	if s == nil {
		return h
	}
	for _, rec := range s.streams {
		h.Attach(rec)
	}
	if s.prof != nil {
		s.prof.Observe(h)
	}
	if s.fr != nil {
		h.Attach(s.fr)
	}
	if s.mon != nil {
		h.Attach(s.mon)
	}
	if s.hists != nil {
		h.Attach(s.hists)
	}
	return h
}

// Mark is the exported phase boundary (see mark).
func (s *Session) Mark(name string) { s.mark(name) }

// mark labels subsequent events with a new phase on every sink: streams
// flush pending deltas, the profiler opens a top-level span, the monitor
// evaluates the closed phase's predictions, and the server broadcasts the
// boundary and receives a fresh span-tree rendering.
func (s *Session) mark(name string) {
	if s == nil {
		return
	}
	for _, rec := range s.streams {
		rec.Phase(name)
	}
	if s.prof != nil {
		s.prof.Mark(name)
	}
	// The flight recorder's phase closes before the monitor's so that when a
	// phase check violates (and its hook freezes the ring), the frozen
	// window's Closed delta is exactly the delta the check evaluated.
	if s.fr != nil {
		s.fr.Phase(name)
	}
	if s.mon != nil {
		s.mon.Phase(name)
	}
	if s.hists != nil {
		s.hists.Phase(name)
	}
	if s.server != nil {
		s.server.MarkPhase(name)
		s.publishSpans()
	}
}

// Finish closes the run's last phase in mark's order, flight recorder
// before monitor, so that a violation in that phase freezes the delta its
// check evaluated, and returns every violation the monitor recorded over the
// run (nil without one). Call after the last section.
func (s *Session) Finish() []monitor.Violation {
	if s == nil {
		return nil
	}
	if s.fr != nil {
		s.fr.Finish()
	}
	if s.mon == nil {
		return nil
	}
	return s.mon.Finish()
}

// publishSpans renders the profiler's main span tree and pushes it to the
// server. Span trees are not safe for concurrent reads, so only the run
// goroutine (which owns the profiler) renders; the server serves the bytes.
func (s *Session) publishSpans() {
	if s.server == nil || s.prof == nil {
		return
	}
	if b, err := json.Marshal(s.prof.Main.Roots()); err == nil {
		s.server.PublishSpans(b)
	}
}

// distObserve returns a per-processor observer: a named recorder group on
// the installed profiler, a per-rank flight.Group on the installed flight
// recorder (kept as the latest dist group, so a violation capture can freeze
// the run's rank rings), both teed when both are installed, or nil when
// neither is.
func (s *Session) distObserve(name string) dist.Observer {
	if s == nil {
		return nil
	}
	var pg, fg dist.Observer
	if s.prof != nil {
		pg = s.prof.Group(name).Recorder
	}
	if s.fr != nil {
		g := flight.NewGroup(name, s.fr.Stats().Capacity, nil)
		s.flightDist = g
		fg = g.Recorder
	}
	switch {
	case pg == nil && fg == nil:
		return nil
	case fg == nil:
		return pg
	case pg == nil:
		return fg
	}
	return func(rank int) machine.Recorder {
		return machine.Tee(pg(rank), fg(rank))
	}
}

// distDone reports a finished distributed machine: per-rank snapshots go to
// the server's /metrics and /snapshot (as a static copy — the run is over),
// and the machine-wide totals reach /events through one aggregate-stream
// flush, the same wire format the sequential stream uses.
func (s *Session) distDone(name string, m *dist.Machine) {
	if s == nil || s.server == nil {
		return
	}
	s.server.PublishRanks(name, m.RankSnapshots())
	as := m.NewAggregateStream(s.server.Events())
	_ = as.Flush(name)
	_ = as.Close()
}

// statsCheck reports one finished cache simulation: the monitor evaluates
// any write-back predictions registered for the kernel, and the server
// publishes the stats for /metrics and /snapshot.
func (s *Session) statsCheck(kernel string, st cache.Stats) {
	if s == nil {
		return
	}
	if s.mon != nil {
		s.mon.ObserveStats(kernel, st)
	}
	if s.server != nil {
		s.server.PublishCacheStats(kernel, st)
	}
}

// conform asserts one externally computed bound through the monitor (no-op
// without one): floor or ceiling with the given slack, recorded as a
// Violation when it fails.
func (s *Session) conform(check, kernel string, observed, expected, slack float64, ceiling bool) {
	if s == nil {
		return
	}
	if s.mon != nil {
		s.mon.CheckBound(check, kernel, observed, expected, slack, ceiling)
	}
	// Every floor-type check doubles as one floor-slack observation: the
	// distribution of observed/floor across all checked kernels is the
	// "how close to the paper's bounds does the code run" histogram.
	if s.hists != nil && !ceiling {
		s.hists.ObserveFloorSlack(kernel, observed, expected)
	}
}

// conformPerSocket asserts the same externally computed bound once per
// socket (observed[sock] is socket sock's value), recording each verdict
// under kernel + "/socket<s>"; no-op without a monitor.
func (s *Session) conformPerSocket(check, kernel string, observed []float64, expected, slack float64, ceiling bool) {
	if s == nil || s.mon == nil {
		return
	}
	s.mon.CheckPerSocket(check, kernel, observed, expected, slack, ceiling)
}

// profRec returns the profiler's main recorder for sinks that are driven
// directly rather than through a Hierarchy (the krylov Traffic counter), or
// nil when no profiler is installed.
func (s *Session) profRec() machine.Recorder {
	if s == nil || s.prof == nil {
		return nil
	}
	return s.prof.Main
}

// FlightCapture freezes the installed flight recorder into a forensic bundle
// for v: the main window (hierarchy-synced, so the tail is exact to the
// event), the violation metadata, and — when the most recent dist-backed
// section registered rank recorders — every rank's window correlated by
// superstep. Returns nil when no flight recorder is installed.
//
// Meant to run from a monitor violation hook: hooks fire on the recording
// goroutine, which for phase and bound checks is the run goroutine that owns
// the hierarchy, so the Capture sync is safe.
func (s *Session) FlightCapture(v monitor.Violation) *flight.Bundle {
	if s == nil || s.fr == nil {
		return nil
	}
	b := &flight.Bundle{
		Reason:     "violation",
		CapturedAt: time.Now().UTC(),
		Violation: &flight.ViolationInfo{
			ID:       v.ID,
			Check:    v.Check,
			Kernel:   v.Kernel,
			Expected: v.Expected,
			Observed: v.Observed,
			Slack:    v.Slack,
			Detail:   v.Detail,
		},
		Window: s.fr.Capture("violation"),
	}
	if g := s.flightDist; g != nil {
		b.Ranks = g.Windows("violation")
	}
	return b
}
