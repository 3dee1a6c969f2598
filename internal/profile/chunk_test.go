package profile

import "testing"

// A chunkList finds every record where push put it, through the geometric
// chunks and past the cap, and allocates its chunks at the sizes its
// constants give: 16 records, doubling, then 128 each.
func TestChunkListIndexes(t *testing.T) {
	var l chunkList[int32]
	const n = 3<<maxRecShift + 100
	for i := int32(0); i < n; i++ {
		if got := l.push(i); got != i {
			t.Fatalf("push %d returned index %d", i, got)
		}
	}
	if l.len() != n {
		t.Fatalf("len %d, want %d", l.len(), n)
	}
	for i := int32(0); i < n; i++ {
		if got := *l.at(i); got != i {
			t.Fatalf("at(%d) = %d", i, got)
		}
	}
	total := 0
	for k, c := range l.chunks {
		want := 1 << min(minRecShift+k, maxRecShift)
		if cap(c) != want {
			t.Fatalf("chunk %d holds %d records, want %d", k, cap(c), want)
		}
		total += cap(c)
	}
	if total-n >= 1<<maxRecShift {
		t.Fatalf("%d records in chunks of %d in all: a whole chunk spare", n, total)
	}
}
