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
// through observe, cache-simulated sections report their finished
// cache.Stats through statsCheck, and dist-backed sections hand their
// finished machines to distDone for per-rank publication and
// aggregate-stream flushes. Sections backed by raw cache simulators or by
// concurrent machines contribute marks but no hierarchy events.
//
// The installed sinks share one machine.Ledger, the run's only counter fold
// (the first installed sink's ledger, so its seed geometry is the run's):
// observe attaches that ledger and nothing else, and each sink reads it.
// The ledger closes each phase once and hands every sink the same delta —
// the monitor's checks, the histograms, the flight recorder's last closed
// phase, the streams' records — so no sink has to close its phase before
// another for a violation bundle to freeze the delta the check evaluated.
// The profiler's main span tree hangs below it with a fold of its own (it
// also takes krylov's direct Traffic charges, which no hierarchy emits).
// Install sinks before the first observed hierarchy: a ledger reports its
// span interest when it is attached.
//
// The zero value is a valid no-sink session: every section runs with nothing
// attached, and a nil *Session behaves the same way.
type Session struct {
	led     *machine.Ledger
	streams []*machine.StreamRecorder
	prof    *profile.Profiler
	mon     *monitor.Monitor
	server  *monitor.Server
	hists   *monitor.HistogramRecorder
	runLog  *slog.Logger

	// spans is the /spans body's head: "[", then each root of the
	// profiler's main tree that has closed, followed by its comma, each
	// rendered once (spansDone of them). It is only ever appended to, so
	// the server serves it as published without a copy.
	spans     []byte
	spansDone int

	// The flight recorder's ring is fed by the ledger like the other sinks;
	// dist-backed sections get a per-rank flight.Group beside the profiler
	// group, on one ledger per rank, so a violation can freeze every rank's
	// ring too.
	fr         *flight.Recorder
	flightDist *flight.Group
}

// NewSession returns an empty session with no sinks installed.
func NewSession() *Session { return &Session{} }

// follower is a sink that reads a ledger: its own until it follows another.
type follower interface {
	Ledger() *machine.Ledger
	Follow(*machine.Ledger)
}

// join makes a newly installed sink read the session's ledger, or makes the
// sink's own ledger the session's when it is the first.
func (s *Session) join(f follower) {
	if s.led == nil {
		s.led = f.Ledger()
	} else if f.Ledger() != s.led {
		f.Follow(s.led)
	}
}

// SetStream installs rec as the only stream recorder (nil: removes them all).
// The caller keeps ownership: it must Close the recorder after the
// experiments finish to flush the final record.
func (s *Session) SetStream(rec *machine.StreamRecorder) {
	for _, old := range s.streams {
		old.Unfollow()
	}
	s.streams = nil
	if rec != nil {
		s.AddStream(rec)
	}
}

// AddStream installs one more stream recorder alongside any already set —
// how wabench streams to a file and to the HTTP event bridge at once.
func (s *Session) AddStream(rec *machine.StreamRecorder) {
	s.join(rec)
	s.streams = append(s.streams, rec)
}

// SetProfile installs (or, with nil, removes) the attribution profiler. The
// caller keeps ownership and renders the trace/summary after the run.
func (s *Session) SetProfile(p *profile.Profiler) {
	if s.prof != nil {
		s.led.Unchain(s.prof.Main.Ledger())
	}
	s.prof = p
	s.spans, s.spansDone = nil, 0
	if p == nil {
		return
	}
	main := p.Main.Ledger()
	if s.led == nil {
		s.led = machine.NewLedger(main.Levels())
	}
	s.led.Chain(main)
}

// SetMonitor installs (or removes) the theory-conformance monitor: it reads
// the session's ledger, marks become its phase evaluations, and cache-backed
// sections route stats checks through it.
func (s *Session) SetMonitor(m *monitor.Monitor) {
	if s.mon != nil {
		s.mon.Unfollow()
	}
	s.mon = m
	if m != nil {
		s.join(m)
	}
}

// SetServer installs (or removes) the live HTTP server: marks broadcast
// phase events, dist sections publish per-rank snapshots, cache sections
// publish stats, and the profiler's span tree is pushed at each boundary.
func (s *Session) SetServer(srv *monitor.Server) { s.server = srv }

// SetHistograms installs (or removes) the distribution recorder: it reads
// the session's ledger, marks close its phases, and every floor-type conform
// check contributes a floor-slack observation.
func (s *Session) SetHistograms(h *monitor.HistogramRecorder) {
	if s.hists != nil {
		s.hists.Unfollow()
	}
	s.hists = h
	if h != nil {
		s.join(h)
	}
}

// SetLogger installs the structured run logger that dist-backed sections
// hand to their machines (dist.Config.Logger); nil removes it. Counters are
// unaffected — the logger only emits Debug records at run boundaries.
func (s *Session) SetLogger(l *slog.Logger) { s.runLog = l }

// SetFlight installs (or, with nil, removes) the always-on flight recorder.
// The caller keeps ownership; wabench reads it back through the server's
// /flight endpoint and through FlightCapture on violations.
func (s *Session) SetFlight(f *flight.Recorder) {
	if s.fr != nil {
		s.fr.Unfollow()
	}
	s.fr = f
	if f == nil {
		s.flightDist = nil
		return
	}
	s.join(f)
}

// runLogger returns the installed run logger, or nil.
func (s *Session) runLogger() *slog.Logger {
	if s == nil {
		return nil
	}
	return s.runLog
}

// Observe attaches the session's ledger to a freshly built hierarchy and
// returns it unchanged. Exported for drivers outside this package that want
// the same wiring (wabench's -json phase suite).
func (s *Session) Observe(h *machine.Hierarchy) *machine.Hierarchy { return s.observe(h) }

// observe attaches the ledger — the one recorder every installed sink reads
// — or nothing when no sink is installed.
func (s *Session) observe(h *machine.Hierarchy) *machine.Hierarchy {
	if s == nil || s.led == nil {
		return h
	}
	if len(s.streams) > 0 || s.prof != nil || s.fr != nil || s.mon != nil || s.hists != nil {
		h.Attach(s.led)
	}
	return h
}

// Mark is the exported phase boundary (see mark).
func (s *Session) Mark(name string) { s.mark(name) }

// mark labels subsequent events with a new phase on every sink: the ledger
// closes the phase once (streams flush their pending deltas, the monitor
// evaluates the closed phase's predictions, the histograms observe it, the
// flight recorder's last closed phase becomes it), the profiler opens a
// top-level span, and the server broadcasts the boundary and receives a
// fresh span-tree rendering.
func (s *Session) mark(name string) {
	if s == nil {
		return
	}
	if s.led != nil {
		s.led.Phase(name)
	}
	if s.prof != nil {
		s.prof.Mark(name)
	}
	if s.server != nil {
		s.server.MarkPhase(name)
		s.publishSpans()
	}
}

// Finish closes the run's last phase on the ledger, so that every sink sees
// it (a violation in that phase freezes the delta its check evaluated), and
// returns every violation the monitor recorded over the run (nil without
// one). Call after the last section.
func (s *Session) Finish() []monitor.Violation {
	if s == nil {
		return nil
	}
	if s.led != nil {
		s.led.Finish()
	}
	if s.mon == nil {
		return nil
	}
	return s.mon.Finish()
}

// publishSpans pushes the profiler's main span tree, the bytes
// json.Marshal(Main.Roots()) gives, to the server. It runs right after the
// profiler's mark, so every root but the last is closed, and a closed span
// never changes: each closed root is rendered once, onto the end of the
// head, and only the open root is rendered afresh, into the tail. Span
// trees are not safe for concurrent reads, so only the run goroutine (which
// owns the profiler) renders; the server serves the bytes.
func (s *Session) publishSpans() {
	if s.server == nil || s.prof == nil {
		return
	}
	roots := s.prof.Main.Roots()
	if len(s.spans) == 0 {
		s.spans = append(s.spans, '[')
	}
	for ; s.spansDone < len(roots)-1; s.spansDone++ {
		b, err := json.Marshal(roots[s.spansDone])
		if err != nil {
			return
		}
		s.spans = append(append(s.spans, b...), ',')
	}
	tail, err := json.Marshal(roots[len(roots)-1])
	if err != nil {
		return
	}
	s.server.PublishSpans(s.spans[:len(s.spans):len(s.spans)], append(tail, ']'))
}

// distObserve returns a per-processor observer: each rank gets one ledger,
// the rank's only fold besides its hierarchy's own counters, read by a span
// tree in a named group of the installed profiler and by a ring in a per-rank
// flight.Group of the installed flight recorder (kept as the latest dist
// group, so a violation capture can freeze the run's rank rings). Only that
// latest group is read, so it reuses the rings of the group before it. It
// is nil when neither sink is installed.
func (s *Session) distObserve(name string) dist.Observer {
	if s == nil {
		return nil
	}
	var pg *profile.ProcGroup
	var fg *flight.Group
	if s.prof != nil {
		pg = s.prof.Group(name)
	}
	if s.fr != nil {
		fg = flight.NewGroup(name, s.fr.Stats().Capacity, nil)
		fg.Reuse(s.flightDist)
		s.flightDist = fg
	}
	if pg == nil && fg == nil {
		return nil
	}
	return func(rank int) machine.Recorder {
		l := machine.NewLedger(nil)
		if pg != nil {
			pg.Follow(rank, l)
		}
		if fg != nil {
			fg.Follow(rank, l)
		}
		return l
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

// profRec returns the ledger of the profiler's main span tree for charges
// recorded directly rather than through a Hierarchy (the krylov Traffic
// counter), or nil when no profiler is installed. Direct charges are not
// synced: the caller marks a phase first, which syncs every hierarchy.
func (s *Session) profRec() machine.Recorder {
	if s == nil || s.prof == nil {
		return nil
	}
	return s.prof.Main.Ledger()
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
