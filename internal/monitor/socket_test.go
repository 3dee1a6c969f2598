package monitor

import (
	"bytes"
	"strings"
	"testing"

	"writeavoid/internal/machine"
)

// CheckPerSocket applies one bound to each socket's observation and labels
// each verdict with its socket.
func TestCheckPerSocket(t *testing.T) {
	m := New(machine.GenericLevels(2), nil)
	if !m.CheckPerSocket("w2-floor", "numa/block", []float64{100, 120}, 90, 1, false) {
		t.Fatal("both sockets above the floor must pass")
	}
	if m.CheckPerSocket("w2-floor", "numa/block", []float64{100, 10}, 90, 1, false) {
		t.Fatal("one socket below the floor must fail")
	}
	vs := m.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	if vs[0].Kernel != "numa/block/socket1" {
		t.Fatalf("violation kernel %q, want numa/block/socket1", vs[0].Kernel)
	}
	if vs[0].Observed != 10 || vs[0].Expected != 90 {
		t.Fatalf("violation values: %+v", vs[0])
	}
}

// The remote metric families appear in the exposition only when a remote
// counter is nonzero, keeping flat-machine scrapes sample-identical to the
// pre-socket format.
func TestPrometheusRemoteFamiliesGatedOnNonzero(t *testing.T) {
	h := machine.TwoLevel(64)
	h.Load(0, 10)
	h.Store(0, 4)

	flat := snapshotBody(t, h.Snapshot())
	if strings.Contains(flat, "remote") {
		t.Fatalf("flat exposition leaks remote families:\n%s", flat)
	}

	h.LoadRemote(0, 3)
	h.StoreRemote(0, 2)
	numa := snapshotBody(t, h.Snapshot())
	for _, want := range []string{
		`wa_interface_remote_load_words_total{iface="0",between="fast<->slow"} 3`,
		`wa_interface_remote_store_words_total{iface="0",between="fast<->slow"} 2`,
	} {
		if !strings.Contains(numa, want) {
			t.Fatalf("exposition missing %q:\n%s", want, numa)
		}
	}
	if _, err := ValidateExposition([]byte(numa)); err != nil {
		t.Fatalf("remote exposition invalid: %v", err)
	}
}

func snapshotBody(t *testing.T, s machine.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (&exposition{snap: s, hasSnap: true}).write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
