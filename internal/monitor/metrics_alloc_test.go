//go:build !race

package monitor

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

// discardResponse is a ResponseWriter that keeps nothing, so a render's
// allocations are the handler's own.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// A /metrics render allocates the same with 16 published rank snapshots as
// with 384, the count an observed dist op publishes: within 2 (20 both,
// measured). The sample-list writer made about 190 allocations per
// snapshot: 4,129 with 16 and 74,036 with 384.
func TestMetricsAllocationsFlatInRanks(t *testing.T) {
	render := func(ranks int) float64 {
		h := machine.New(false, machine.GenericLevels(3)...)
		h.Load(1, 64)
		h.Store(0, 16)
		h.LoadRemote(0, 3)
		snaps := make([]machine.Snapshot, ranks)
		for i := range snaps {
			snaps[i] = h.Snapshot()
		}
		srv := NewServer()
		srv.SetSnapshot(h.Snapshot)
		srv.PublishRanks("table1", snaps)
		srv.PublishCacheStats("fig2-wa", cache.Stats{Accesses: 10, Hits: 8})
		srv.SetHistograms(NewHistogramRecorder(machine.GenericLevels(3)))
		w := &discardResponse{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		return testing.AllocsPerRun(100, func() { srv.handleMetrics(w, req) })
	}
	small, large := render(16), render(384)
	t.Logf("a /metrics render allocates %.0f times with 16 rank snapshots, %.0f with 384", small, large)
	if large-small > 2 || small-large > 2 {
		t.Fatalf("a render allocates %.0f times with 16 rank snapshots and %.0f with 384, want equal within 2", small, large)
	}
}
