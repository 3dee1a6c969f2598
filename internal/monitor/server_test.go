package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"writeavoid/internal/cache"
	"writeavoid/internal/machine"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// One server wired like wabench wires it: monitor as snapshot/violation
// source, published ranks, cache stats and spans. Every endpoint must serve
// what was registered, and /metrics must parse as Prometheus text.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Register(OutputFloor("k", 1<<40)) // wrong on purpose: /violations must show it
	mon := New(machine.GenericLevels(2), reg)
	mon.Phase("k")
	load(mon, 0, 200)
	store(mon, 0, 100)
	mon.Finish()

	srv := NewServer()
	srv.SetMonitor(mon)
	srv.PublishRanks("table1", []machine.Snapshot{mon.Snapshot(), mon.Snapshot()})
	srv.PublishCacheStats("fig2-wa", cache.Stats{Accesses: 100, Hits: 90, Misses: 10, VictimsM: 3})
	srv.PublishSpans([]byte(`[`), []byte(`{"name":"sec2"}]`))

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts, "/nope"); code != 404 {
		t.Fatalf("/nope = %d, want 404", code)
	}

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	info, err := ValidateExposition(body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if info.Samples == 0 {
		t.Fatal("/metrics empty")
	}
	for _, want := range []string{
		"wa_up 1",
		`wa_interface_store_words_total{iface="0",between="L0<->L1"}`,
		`rank="1"`,
		`wa_cache_victims_dirty_total{sim="fig2-wa"} 3`,
		"wa_violations_total 1",
		"wa_monitor_phases_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts, "/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot = %d", code)
	}
	var doc struct {
		Machine *machine.Snapshot             `json:"machine"`
		Ranks   map[string][]machine.Snapshot `json:"ranks"`
		Cache   map[string]cache.Stats        `json:"cache"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if doc.Machine == nil || doc.Machine.Interfaces[0].StoreWords != 100 {
		t.Fatalf("/snapshot machine = %+v", doc.Machine)
	}
	if len(doc.Ranks["table1"]) != 2 || doc.Cache["fig2-wa"].Accesses != 100 {
		t.Fatalf("/snapshot ranks/cache = %+v / %+v", doc.Ranks, doc.Cache)
	}

	code, body = get(t, ts, "/violations")
	if code != 200 {
		t.Fatalf("/violations = %d", code)
	}
	var viol []Violation
	if err := json.Unmarshal(body, &viol); err != nil {
		t.Fatalf("/violations: %v", err)
	}
	if len(viol) != 1 || viol[0].Check != "wa-output-floor" {
		t.Fatalf("/violations = %v", viol)
	}

	if _, body := get(t, ts, "/spans"); string(body) != `[{"name":"sec2"}]` {
		t.Fatalf("/spans = %q", body)
	}
}

// A server with no sources still serves: /violations is an empty JSON array
// (not null), /spans an empty tree, /metrics just the liveness families.
func TestServerEmptyDefaults(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, body := get(t, ts, "/violations"); strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("/violations = %q, want []", body)
	}
	if _, body := get(t, ts, "/spans"); string(body) != "[]" {
		t.Fatalf("/spans = %q", body)
	}
	_, body := get(t, ts, "/metrics")
	if _, err := ValidateExposition(body); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if !strings.Contains(string(body), "wa_up 1") {
		t.Fatalf("/metrics = %s", body)
	}
}

// Start binds a real listener (":0" ephemeral), serves over it, and Close
// tears it down even with an SSE client holding its connection open.
func TestServerStartClose(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s", addr)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// An SSE client parked on /events must not make Close hang.
	evResp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// MarkPhase reaches /events subscribers as a named SSE event even when no
// stream recorder is attached — cache-simulated sections stay visible.
func TestMarkPhaseBroadcasts(t *testing.T) {
	srv := NewServer()
	ch := srv.Events().subscribe()
	defer srv.Events().unsubscribe(ch)
	srv.MarkPhase("fig2")
	msg := <-ch
	if msg.event != "phase" || string(msg.data) != `{"phase":"fig2"}` {
		t.Fatalf("msg = %q %q", msg.event, msg.data)
	}
}
