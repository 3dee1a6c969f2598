package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"writeavoid/internal/experiments"
	"writeavoid/internal/flight"
	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// The observed sink set is what `wabench -check strict -flight 4096 -stream
// /dev/null -profile -serve 127.0.0.1:0` attaches. The two orders below are
// also the sink ladders of the traced runs, which add the sinks one at a
// time: the dist ladder starts with the per-rank profiler and flight groups,
// the only sinks that see a dist-backed section's rank events.
var (
	kernelSinks = []string{"monitor", "stream", "profiler", "flight", "histograms", "server"}
	distSinks   = []string{"profiler", "flight", "monitor", "stream", "histograms", "server"}
)

const (
	flightEvents = 4096
	streamEvery  = 100000 // wabench's -stream-every default
	scrapeEvery  = 250 * time.Millisecond
)

// observed is one op's fresh sinks on a fresh Session.
type observed struct {
	sess    *experiments.Session
	mon     *monitor.Monitor
	hists   *monitor.HistogramRecorder
	streams []*machine.StreamRecorder
	server  bool
}

// newObserved attaches the named sinks, in order, to a new Session. The
// "server" sink re-points the already running srv at this op's sinks and
// must come after the monitor, histograms and flight recorder.
//
// The server reads the monitor through SetSnapshot, not SetMonitor: with
// SetMonitor every /metrics scrape calls Monitor.TotalEvents, which flushes
// the run's hierarchy buffers from the HTTP goroutine while the run
// goroutine is still filling them. Under scraping that race loses or repeats
// events in the monitor's phase deltas and raises false strict violations.
func newObserved(sinks []string, srv *monitor.Server) *observed {
	lv := machine.GenericLevels(3)
	o := &observed{sess: experiments.NewSession()}
	var fr *flight.Recorder
	for _, name := range sinks {
		switch name {
		case "monitor":
			o.mon = monitor.New(lv, experiments.ConformanceChecks(false))
			o.sess.SetMonitor(o.mon)
		case "stream":
			o.addStream(machine.NewStreamRecorder(io.Discard, lv, streamEvery))
		case "profiler":
			o.sess.SetProfile(profile.NewProfiler(lv))
		case "flight":
			fr = flight.New(flightEvents, lv)
			o.sess.SetFlight(fr)
		case "histograms":
			o.hists = monitor.NewHistogramRecorder(lv)
			o.sess.SetHistograms(o.hists)
		case "server":
			o.server = true
			srv.SetSnapshot(o.mon.Snapshot)
			srv.SetHistograms(o.hists)
			srv.SetFlight(fr)
			o.addStream(machine.NewStreamRecorder(srv.Events(), lv, streamEvery))
			o.sess.SetServer(srv)
		default:
			panic("bench: unknown sink " + name)
		}
	}
	if o.mon != nil && fr != nil {
		o.mon.SetViolationHook(func(v monitor.Violation) {
			if b := o.sess.FlightCapture(v); b != nil && o.server {
				srv.AddBundle(b)
			}
		})
	}
	return o
}

func (o *observed) addStream(s *machine.StreamRecorder) {
	o.sess.AddStream(s)
	o.streams = append(o.streams, s)
}

// finish closes every sink the way wabench does at the end of a run and
// returns the conformance violations the monitor recorded.
func (o *observed) finish() (violations []monitor.Violation, err error) {
	var errs []error
	for _, s := range o.streams {
		if err := s.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing stream: %w", err))
		}
	}
	if o.hists != nil {
		o.hists.Finish()
	}
	if o.mon != nil {
		violations = o.mon.Finish()
	}
	return violations, errors.Join(errs...)
}

// scraper fetches /metrics open-loop at 4 Hz over one keep-alive connection,
// from one goroutine, while ops with the server sink run. It only collects
// the responses; check validates them between ops, so that parsing, the
// load generator's own work, stays out of the timed ops.
type scraper struct {
	url    string
	client *http.Client

	stop chan struct{} // nil while halted
	done chan struct{}

	mu  sync.Mutex
	got []scrape // completed since the last check
}

// scrape is one completed fetch. Latency runs from its due time to its last
// body byte, so a stalled server also delays the scrapes queued behind it.
type scrape struct {
	latency, late time.Duration
	status        int
	body          []byte
	err           error
}

func newScraper(addr string) *scraper {
	return &scraper{
		url: "http://" + addr + "/metrics",
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

// start launches the scrape loop unless it is running.
func (s *scraper) start() {
	if s.stop != nil {
		return
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.loop(s.stop, s.done)
}

// halt stops the scrape loop, if any, and waits for it to exit. Safe on a
// nil scraper.
func (s *scraper) halt() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

func (s *scraper) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	due := time.Now()
	for {
		due = due.Add(scrapeEvery)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		sc := scrape{late: time.Since(due)}
		resp, err := s.client.Get(s.url)
		if err == nil {
			sc.status = resp.StatusCode
			sc.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		sc.err, sc.latency = err, time.Since(due)
		s.mu.Lock()
		s.got = append(s.got, sc)
		s.mu.Unlock()
	}
}

// scrapeLog summarizes checked scrapes.
type scrapeLog struct {
	Failed    int       `json:"failed"`
	LatencyS  []float64 `json:"latency_s,omitempty"`
	LateMaxS  float64   `json:"late_max_s"`
	BodyBytes []float64 `json:"-"`
	err       error
}

func (l *scrapeLog) add(m scrapeLog) {
	l.Failed += m.Failed
	l.LatencyS = append(l.LatencyS, m.LatencyS...)
	l.LateMaxS = max(l.LateMaxS, m.LateMaxS)
	l.BodyBytes = append(l.BodyBytes, m.BodyBytes...)
	if l.err == nil {
		l.err = m.err
	}
}

// check validates the scrapes completed since the last check: a transport
// error, a non-200 status or a body a strict Prometheus parser rejects fails
// the scrape.
func (s *scraper) check() scrapeLog {
	s.mu.Lock()
	got := s.got
	s.got = nil
	s.mu.Unlock()
	var log scrapeLog
	for _, sc := range got {
		err := sc.err
		if err == nil && sc.status != http.StatusOK {
			err = fmt.Errorf("status %d", sc.status)
		}
		if err == nil {
			_, err = monitor.ValidateExposition(sc.body)
		}
		log.LatencyS = append(log.LatencyS, sc.latency.Seconds())
		log.LateMaxS = max(log.LateMaxS, sc.late.Seconds())
		log.BodyBytes = append(log.BodyBytes, float64(len(sc.body)))
		if err != nil {
			log.Failed++
			if log.err == nil {
				log.err = fmt.Errorf("scrape: %w", err)
			}
		}
	}
	return log
}
