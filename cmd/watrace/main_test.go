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
