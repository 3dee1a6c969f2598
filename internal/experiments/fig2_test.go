package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"writeavoid/internal/access"
)

// figPanels hands its points to GOMAXPROCS workers that reuse one cache
// each. With one worker or four (more than this suite's hosts have cores),
// its panels must come out the same, in trace order.
func TestFigPanelsMatchSerial(t *testing.T) {
	var traces []FigTrace
	for _, tr := range append(Fig2Traces(true), Fig5Traces(true)...) {
		if tr.Mid <= 32 {
			traces = append(traces, tr)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := figPanels(traces)
	runtime.GOMAXPROCS(4)
	if got := figPanels(traces); !reflect.DeepEqual(got, serial) {
		t.Fatalf("GOMAXPROCS 4 panels differ from GOMAXPROCS 1:\n got %+v\nwant %+v", got, serial)
	}
	var points []FigPoint
	for _, p := range serial {
		for _, pt := range p.Points {
			if tr := traces[len(points)]; p.Name != tr.Panel || pt.Mid != tr.Mid {
				t.Fatalf("point %d is %s mid %d, traced as %s mid %d", len(points), p.Name, pt.Mid, tr.Panel, tr.Mid)
			}
			points = append(points, pt)
		}
	}
	// The lone worker ran the mid-8 points last, through a cache that
	// every other point had been through: they must match a fresh cache.
	for i, tr := range traces {
		if tr.Mid != 8 {
			continue
		}
		c := figCache()
		tr.Run(c)
		c.FlushDirty()
		if want := point(tr.Mid, c.Stats(), tr.ideal); points[i] != want {
			t.Errorf("%s mid %d: %+v through a reused cache, %+v through a fresh one", tr.Panel, tr.Mid, points[i], want)
		}
	}
}

// A panic in one point stops that point's worker and is re-raised in
// figPanels' caller, with the point's panic value, after the other workers
// finish.
func TestFigPanelsRepanics(t *testing.T) {
	boom := &struct{ msg string }{"boom"}
	traces := make([]FigTrace, 8)
	for i := range traces {
		traces[i] = FigTrace{Panel: "p", Mid: i, Run: func(s access.Sink) { s.Access(uint64(i*64), true) }}
	}
	traces[5].Run = func(access.Sink) { panic(boom) }
	defer func() {
		if got := recover(); got != boom {
			t.Fatalf("figPanels panicked with %v, want the point's value %v", got, boom)
		}
	}()
	figPanels(traces)
	t.Fatal("figPanels returned after a point panicked")
}
