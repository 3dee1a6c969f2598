package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"writeavoid/internal/machine"
	"writeavoid/internal/monitor"
	"writeavoid/internal/profile"
)

// getSpans reads /spans through the server's handler.
func getSpans(srv *monitor.Server) []byte {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/spans", nil))
	return rec.Body.Bytes()
}

// publishedSpans checks, at the start of every mark, the /spans body the
// mark before published: json.Marshal of the main tree's roots as they
// were then. The closed roots have not changed since, and the last root
// had just opened, so it had no children, no End and no Delta yet.
type publishedSpans struct {
	t      *testing.T
	s      *Session
	checks int
}

func (c *publishedSpans) PhaseClosed(*machine.PhaseDelta) {
	c.t.Helper()
	got := getSpans(c.s.server)
	roots := c.s.prof.Main.Roots()
	if len(roots) == 0 {
		if string(got) != "[]" {
			c.t.Fatalf("/spans before the first mark = %s, want []", got)
		}
		return
	}
	then := append([]*profile.Span(nil), roots...)
	last := roots[len(roots)-1]
	then[len(then)-1] = &profile.Span{Name: last.Name, Start: last.Start}
	want, err := json.Marshal(then)
	if err != nil {
		c.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		c.t.Fatalf("/spans published at mark %q:\n%s\nwant json.Marshal(Main.Roots()) then:\n%s", last.Name, got, want)
	}
	c.checks++
}

// A session with a profiler and a server over the kernels and dist
// sections: at every mark, /spans serves exactly json.Marshal(Main.Roots())
// as it stood when the mark published it, though each closed root is
// rendered only once.
func TestPublishedSpansMatchRoots(t *testing.T) {
	s := NewSession()
	s.SetProfile(profile.NewProfiler(machine.GenericLevels(3)))
	srv := monitor.NewServer()
	s.SetServer(srv)
	c := &publishedSpans{t: t, s: s}
	s.led.Observe(c)
	s.Sec2Report()
	s.Sec3(false)
	s.Sec4(false)
	s.Sec9Report(false)
	s.Omega(false)
	s.Krylov(false)
	s.Table1(false)
	s.Table2(false)
	s.LU(false)
	s.NUMA(false, 2, machine.PlaceBlock)
	s.Mark("end")
	want, err := json.Marshal(s.prof.Main.Roots())
	if err != nil {
		t.Fatal(err)
	}
	if got := getSpans(srv); !bytes.Equal(got, want) {
		t.Fatalf("/spans after the last mark:\n%s\nwant:\n%s", got, want)
	}
	if c.checks < 17 {
		t.Fatalf("checked %d publications, want one per mark (17 or more)", c.checks)
	}
}

// /spans is read from HTTP goroutines while the run goroutine marks and
// publishes: every body must be a whole JSON array. Run with -race.
func TestSpansReadWhileMarking(t *testing.T) {
	s := NewSession()
	s.SetProfile(profile.NewProfiler(nil))
	srv := monitor.NewServer()
	s.SetServer(srv)
	h := s.observe(machine.New(false, machine.GenericLevels(2)...))
	done := make(chan struct{})
	bad := make(chan []byte, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var roots []map[string]any
				if b := getSpans(srv); json.Unmarshal(b, &roots) != nil {
					bad <- b
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		s.Mark(fmt.Sprint("phase ", i))
		h.Begin("step")
		h.Load(0, 8)
		h.Store(0, 8)
		h.End()
	}
	close(done)
	wg.Wait()
	close(bad)
	if b, ok := <-bad; ok {
		t.Fatalf("/spans served a body that is not a JSON array: %.200s", b)
	}
}
