// Package access defines the tiny memory-trace vocabulary shared between the
// trace emitters (internal/core's MatMulTrace, COMatMulTrace and the other
// traced drivers) and the cache simulators (internal/cache).
//
// A trace is a stream of (byte address, read/write) events delivered to a
// Sink. Streaming through a callback keeps the Figure 2/5 experiments from
// materializing multi-hundred-million-entry traces; only the offline Belady
// simulation records a full trace, via Recorder.
package access

// Op is one memory access.
type Op struct {
	Addr  uint64 // byte address
	Write bool
}

// Sink consumes a stream of accesses.
type Sink interface {
	Access(addr uint64, write bool)
}

// BatchSink is a Sink that also consumes a whole block of accesses in one
// call. AccessBatch(ops) must have the same effect as calling Access on each
// op in order; the caller owns ops, so an implementation must not retain it.
// Producers that buffer accesses (core.Tracer) resolve it once and hand over
// each block, saving an indirect call per access.
type BatchSink interface {
	Sink
	AccessBatch(ops []Op)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(addr uint64, write bool)

// Access implements Sink.
func (f SinkFunc) Access(addr uint64, write bool) { f(addr, write) }

// Recorder is a Sink that materializes the trace (for offline OPT/Belady
// simulation and for tests).
type Recorder struct {
	Ops []Op
}

// Access implements Sink.
func (r *Recorder) Access(addr uint64, write bool) {
	r.Ops = append(r.Ops, Op{Addr: addr, Write: write})
}

// AccessBatch implements BatchSink.
func (r *Recorder) AccessBatch(ops []Op) { r.Ops = append(r.Ops, ops...) }

// Tee fans one stream out to several sinks.
type Tee []Sink

// Access implements Sink.
func (t Tee) Access(addr uint64, write bool) {
	for _, s := range t {
		s.Access(addr, write)
	}
}

// Counter is a Sink that just counts reads and writes.
type Counter struct {
	Reads, Writes int64
}

// Access implements Sink.
func (c *Counter) Access(_ uint64, write bool) {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
}

// Layout hands out disjoint, line-aligned address ranges so that several
// arrays can share one simulated address space without aliasing.
type Layout struct {
	next  uint64
	align uint64
}

// NewLayout starts an address space with the given alignment (typically the
// cache line size). Alignment must be a power of two.
func NewLayout(align uint64) *Layout {
	if align == 0 || align&(align-1) != 0 {
		panic("access: alignment must be a power of two")
	}
	// Leave address 0 unused so a zero Addr is recognizably bogus.
	return &Layout{next: align, align: align}
}

// Alloc reserves bytes and returns the base address of the region.
func (l *Layout) Alloc(bytes uint64) uint64 {
	base := l.next
	l.next += (bytes + l.align - 1) &^ (l.align - 1)
	return base
}

// Region is a 2-D row-major array of 8-byte elements placed in the address
// space; it converts (i,j) element coordinates to byte addresses.
type Region struct {
	Base   uint64
	Cols   int
	ElemSz uint64
}

// NewRegion allocates an r-by-c array of 8-byte float64s.
func (l *Layout) NewRegion(r, c int) Region {
	return Region{Base: l.Alloc(uint64(r*c) * 8), Cols: c, ElemSz: 8}
}

// Addr returns the byte address of element (i,j).
func (g Region) Addr(i, j int) uint64 {
	return g.Base + uint64(i*g.Cols+j)*g.ElemSz
}
