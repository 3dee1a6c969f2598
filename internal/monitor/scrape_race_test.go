package monitor_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
)

// scrapedRun is what a strict run leaves behind.
type scrapedRun struct {
	snap       machine.Snapshot
	events     int64
	phases     int64
	violations []monitor.Violation
	scrapes    int64
}

// strictRun records phases of exactly known traffic through a batched
// hierarchy into a monitor whose one check holds every phase to that exact
// count, with scrapers fetching /metrics from a server wired by SetMonitor
// as fast as they can. Halfway through each phase the run waits for a
// scrape to finish while its hierarchy holds buffered events: a scrape
// that flushed them would race the run goroutine.
func strictRun(t *testing.T, scrapers int) scrapedRun {
	const phases, steps = 30, 400
	levels := machine.GenericLevels(2)
	reg := monitor.NewRegistry()
	reg.Register(monitor.Prediction{Check: "exact-phase", Eval: func(kernel string, d machine.Snapshot) []monitor.Violation {
		if got := d.Interfaces[0].LoadWords; got != steps*8 {
			return []monitor.Violation{{Check: "exact-phase", Kernel: kernel, Expected: steps * 8, Observed: float64(got)}}
		}
		return nil
	}})
	mon := monitor.New(levels, reg)
	srv := monitor.NewServer()
	srv.SetMonitor(mon)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var scrapes atomic.Int64
	var live atomic.Int32 // scrapers still running; a failed one stops
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range scrapers {
		wg.Add(1)
		live.Add(1)
		go func() {
			defer wg.Done()
			defer live.Add(-1)
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("scrape: status %d, err %v", resp.StatusCode, err)
					return
				}
				scrapes.Add(1)
			}
		}()
	}

	h := machine.New(false, levels...)
	h.Attach(mon)
	for p := range phases {
		mon.Phase(fmt.Sprintf("phase%d", p))
		for s := range steps {
			h.Load(0, 8)
			h.Flops(16)
			h.Store(0, 8)
			if s == steps/2 && scrapers > 0 {
				for seen := scrapes.Load(); scrapes.Load() == seen && live.Load() > 0; {
					runtime.Gosched()
				}
			}
		}
	}
	viol := mon.Finish()
	close(done)
	wg.Wait()
	return scrapedRun{mon.Snapshot(), mon.TotalEvents(), mon.Phases(), viol, scrapes.Load()}
}

// TestScrapesDuringStrictRunLeaveItExact: /metrics reads the monitor
// without syncing the run's hierarchy buffers, so heavy scraping during a
// strict run raises no violation (and, under -race, no data race) and
// leaves every count equal to an unscraped run's.
func TestScrapesDuringStrictRunLeaveItExact(t *testing.T) {
	quiet := strictRun(t, 0)
	scraped := strictRun(t, 2)
	if len(quiet.violations) != 0 || len(scraped.violations) != 0 {
		t.Fatalf("violations: unscraped %v, scraped %v", quiet.violations, scraped.violations)
	}
	if scraped.scrapes < 30 {
		t.Fatalf("only %d scrapes landed during the run", scraped.scrapes)
	}
	if scraped.events != quiet.events || scraped.phases != quiet.phases ||
		!reflect.DeepEqual(scraped.snap, quiet.snap) {
		t.Fatalf("scraped run %d events, %d phases, %+v; unscraped %d, %d, %+v",
			scraped.events, scraped.phases, scraped.snap, quiet.events, quiet.phases, quiet.snap)
	}
}
