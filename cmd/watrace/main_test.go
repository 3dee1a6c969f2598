package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Bad record flags exit 2 before any trace is built: a base-case threshold
// below 1 would recurse without end, and a negative dimension would panic
// in the operand layout.
func TestRecordRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bad.trace")
	for _, args := range [][]string{
		{"-order", "co", "-base", "0"},
		{"-order", "co", "-base", "-2"},
		{"-m", "-1"},
		{"-n", "-1"},
		{"-order", "co", "-l", "-1"},
		{"-order", "wa", "-blocks", "8,0"},
		{"-order", "bogus"},
		{"-nosuchflag"},
	} {
		if rc := record(append([]string{"-out", out}, args...)); rc != 2 {
			t.Errorf("record %v = %d, want 2", args, rc)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected record left %s behind (stat: %v)", out, err)
	}
}

func TestRecordWritesTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "co.trace")
	if rc := record([]string{"-out", out, "-order", "co", "-m", "4", "-n", "4", "-l", "4", "-base", "1"}); rc != 0 {
		t.Fatalf("record = %d, want 0", rc)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("no trace written: %v", err)
	}
}

// A cache geometry cache.New rejects exits 2 before any output is opened,
// so before a single access is simulated: the -stream file, which would
// get one record per access, is never created. PLRU on 6 ways used to pass
// validation and die at its set's first eviction, mid-replay.
func TestSimRejectsBadGeometry(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "co.trace")
	if rc := record([]string{"-out", tr, "-order", "co", "-m", "8", "-n", "8", "-l", "8", "-base", "2"}); rc != 0 {
		t.Fatalf("record = %d, want 0", rc)
	}
	stream := filepath.Join(dir, "stats.jsonl")
	run := func(args ...string) int {
		return sim(append([]string{"-in", tr, "-stream", stream, "-stream-every", "1"}, args...))
	}
	for _, args := range [][]string{
		{"-policy", "plru", "-size", "768", "-assoc", "6"},
		{"-policy", "lru", "-size", "768", "-assoc", "2"}, // 6 sets
		{"-policy", "clock3", "-size", "100"},
		{"-fullassoc", "-size", "100"},                       // not a whole number of lines
		{"-policy", "plru", "-size", "4096", "-assoc", "64"}, // PLRU over 32 ways
		{"-policy", "lru", "-size", "4096", "-assoc", "-1"},  // 0, not a negative, means fully associative
		{"-policy", "opt", "-size", "100"},                   // not a whole number of lines
		{"-policy", "opt", "-size", "32"},                    // smaller than one line
		{"-policy", "opt", "-line", "48"},                    // not a power of two
	} {
		if rc := run(args...); rc != 2 {
			t.Errorf("sim %v = %d, want 2", args, rc)
		}
		if _, err := os.Stat(stream); !os.IsNotExist(err) {
			t.Fatalf("sim %v created %s (stat: %v)", args, stream, err)
		}
	}
	if rc := run("-policy", "plru", "-size", "1024", "-assoc", "4"); rc != 0 {
		t.Errorf("sim on a valid PLRU geometry = %d, want 0", rc)
	}
	if b, err := os.ReadFile(stream); err != nil || len(b) == 0 {
		t.Errorf("sim on a valid PLRU geometry streamed %d bytes (%v), want records", len(b), err)
	}
}
