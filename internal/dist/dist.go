// Package dist is the distributed-memory substrate for the parallel
// algorithms of Section 7 of "Write-Avoiding Algorithms" (Carson et al.,
// 2015): a homogeneous SPMD machine of P processors, each with its own
// multi-level machine.Hierarchy, connected by a message-counting network.
//
// Processors run as goroutines; point-to-point messages travel over
// per-ordered-pair buffered channels, created on a pair's first Send or
// Recv, so matching is deterministic in program order regardless of
// scheduling. All counters are per-processor and only mutated by the owning
// goroutine, so the counts are exact and reproducible. Each rank publishes a
// copy of its hierarchy's counters at every Barrier and when its Run body
// returns; Aggregate, RankSnapshot and AggregateStream read those copies, so
// a read taken while the processors run sees whole supersteps.
//
// Messages are immutable. Send hands its slice over without copying: from
// then on the slice is read-only for the sender and for every receiver (a
// broadcast forwards the one slice it holds to each child, so all members
// of the group share it). A caller that must write a slice it received, or
// one it sent, copies it first.
//
// Network word and message counts follow the paper's model: one Send of w
// words costs one message (or ceil(w/MaxMsgWords) when the machine caps
// message size — how 2.5DMML3's "c3/c2 times as many messages" arises) and w
// words on both the sender's and receiver's meters. What the transfer does
// to the local hierarchies (network reads from / writes to L2) is charged
// explicitly by the algorithms via the Stage* helpers.
package dist

import (
	"fmt"
	"log/slog"
	"math/bits"
	"sync"
	"sync/atomic"

	"writeavoid/internal/intmath"
	"writeavoid/internal/machine"
)

// NetCounters meters one processor's network activity. The Remote* fields are
// sub-counters of the totals: the share of traffic whose peer lives on a
// different socket of the machine's Topology (zero on a single-socket
// machine), so intra-socket traffic is total - remote.
type NetCounters struct {
	WordsSent       int64
	WordsRecv       int64
	MsgsSent        int64
	MsgsRecv        int64
	RemoteWordsSent int64
	RemoteWordsRecv int64
	RemoteMsgsSent  int64
	RemoteMsgsRecv  int64
}

// Add accumulates other into n, field-wise.
func (n *NetCounters) Add(other NetCounters) {
	n.WordsSent += other.WordsSent
	n.WordsRecv += other.WordsRecv
	n.MsgsSent += other.MsgsSent
	n.MsgsRecv += other.MsgsRecv
	n.RemoteWordsSent += other.RemoteWordsSent
	n.RemoteWordsRecv += other.RemoteWordsRecv
	n.RemoteMsgsSent += other.RemoteMsgsSent
	n.RemoteMsgsRecv += other.RemoteMsgsRecv
}

// Observer supplies one extra recorder per processor rank; see
// Config.Observe.
type Observer func(rank int) machine.Recorder

// Config describes the homogeneous machine.
type Config struct {
	P int
	// Levels of each processor's local hierarchy, fastest first (the last
	// level is the big one: DRAM or NVM).
	Levels []machine.Level
	// MaxMsgWords caps the words per network message; 0 = unlimited.
	// Larger transfers are split and charged multiple messages.
	MaxMsgWords int64
	// Observe, when non-nil, is called once per rank during construction
	// (sequentially, rank order) and the returned recorder — nil to skip a
	// rank — is attached to that processor's local hierarchy. Each recorder
	// is then driven only by its owning processor's goroutine, so ordinary
	// synchronous recorders work; profile.ProcGroup.Recorder plugs in here
	// for per-processor span attribution.
	Observe Observer
	// Sockets partitions the P ranks over that many sockets (0 or 1: flat
	// machine, nothing remote). Traffic between ranks on different sockets
	// is classified remote in NetCounters and, via the Stage*For helpers,
	// in the local hierarchies' Remote* interface counters. Word and
	// message totals are placement-invariant; only the local/remote split
	// moves.
	Sockets int
	// Placement maps ranks to sockets: machine.PlaceBlock (contiguous rank
	// ranges per socket, the default) or machine.PlaceRoundRobin.
	Placement machine.Placement
	// BatchEvents overrides each rank hierarchy's event-batch capacity
	// (machine.Hierarchy.SetBatchCapacity); 0 keeps the default. Capacity 1
	// replicates per-event delivery timing — the differential harness uses
	// it as the reference engine.
	BatchEvents int
	// Logger, when non-nil, receives structured Debug records at machine
	// construction and SPMD run boundaries (and an Error record when a
	// processor panics). Counters and algorithm behavior are unaffected.
	Logger *slog.Logger
}

// linkCap is the message buffer of one ordered pair's link. Send blocks
// only when its link is full, so the buffer bounds how far a sender runs
// ahead of its receiver on one pair; a Shift needs one slot, since every
// rank sends before it receives. The deepest queue measured on the full-size
// table1, table2, lu and numa sections is 15 messages (right-looking
// Cholesky at P=16, whose panel owners broadcast ahead of their receivers),
// so 16 lets every one of their sends complete without waiting.
const linkCap = 16

// Machine is a P-processor distributed machine.
type Machine struct {
	cfg     Config
	topo    machine.Topology
	sockets []int // sockets[r] = socket hosting rank r
	procs   []*Proc
	// links[from*P+to] is the pair's channel, nil until the pair's first
	// Send or Recv creates it.
	links     []atomic.Pointer[chan []float64]
	bar       *barrier
	abort     chan struct{}
	abortOnce sync.Once
}

// New builds the machine.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic("dist: need at least one processor")
	}
	if len(cfg.Levels) < 2 {
		panic("dist: processors need at least two memory levels")
	}
	m := &Machine{
		cfg:   cfg,
		topo:  machine.Topology{Sockets: cfg.Sockets}.For(cfg.P),
		links: make([]atomic.Pointer[chan []float64], cfg.P*cfg.P),
		bar:   newBarrier(cfg.P),
		abort: make(chan struct{}),
	}
	m.sockets = make([]int, cfg.P)
	for r := range m.sockets {
		m.sockets[r] = m.topo.SocketOf(r, cfg.Placement)
	}
	for r := 0; r < cfg.P; r++ {
		p := &Proc{
			Rank: r,
			// Non-strict: network traffic lands in levels without
			// explicit residency bookkeeping.
			H:   machine.New(false, cfg.Levels...),
			m:   m,
			pub: machine.NewCounterSet(len(cfg.Levels)),
		}
		p.H.SetTopology(m.topo)
		if cfg.BatchEvents > 0 {
			p.H.SetBatchCapacity(cfg.BatchEvents)
		}
		if cfg.Observe != nil {
			if rec := cfg.Observe(r); rec != nil {
				p.H.Attach(rec)
			}
		}
		m.procs = append(m.procs, p)
	}
	return m
}

// P returns the processor count.
func (m *Machine) P() int { return m.cfg.P }

// NumSockets returns the socket count (>= 1).
func (m *Machine) NumSockets() int { return m.topo.Sockets }

// SocketOf returns the socket hosting rank r under the machine's placement.
func (m *Machine) SocketOf(r int) int { return m.sockets[r] }

// Topology returns the machine's completed socket topology.
func (m *Machine) Topology() machine.Topology { return m.topo }

// SocketNets sums each socket's processors' network counters, in socket
// order: SocketNets()[s].RemoteWordsSent is the traffic socket s pushed over
// the inter-socket link.
func (m *Machine) SocketNets() []NetCounters {
	out := make([]NetCounters, m.topo.Sockets)
	for r, p := range m.procs {
		out[m.sockets[r]].Add(p.Net)
	}
	return out
}

// MaxNetOnSocket returns the per-socket critical path: the max over socket
// s's processors of each network counter (the per-socket analogue of MaxNet,
// which the per-socket W2 floor is checked against).
func (m *Machine) MaxNetOnSocket(s int) NetCounters {
	var out NetCounters
	for r, p := range m.procs {
		if m.sockets[r] != s {
			continue
		}
		out = maxNet(out, p.Net)
	}
	return out
}

// Proc returns processor r's state (for post-run inspection).
func (m *Machine) Proc(r int) *Proc { return m.procs[r] }

// Run executes body as P concurrent SPMD processes and waits for all of
// them. A panic in any process is re-raised in the caller.
func (m *Machine) Run(body func(p *Proc)) {
	if l := m.cfg.Logger; l != nil {
		l.Debug("spmd run start", "procs", m.cfg.P, "sockets", m.topo.Sockets)
		defer l.Debug("spmd run done", "procs", m.cfg.P)
	}
	var wg sync.WaitGroup
	panics := make([]any, m.cfg.P)
	for r := 0; r < m.cfg.P; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[p.Rank] = e
					// Unblock peers stuck in the barrier or in
					// channel operations.
					m.bar.poison()
					m.abortOnce.Do(func() { close(m.abort) })
				}
			}()
			body(p)
			// Deliver the rank's buffered events so observer span trees
			// see the complete stream, publish its counters for Aggregate
			// and RankSnapshots, and hand the drained event buffer back
			// for the next machine's ranks.
			p.H.Flush()
			p.publish()
			p.H.Release()
		}(m.procs[r])
	}
	wg.Wait()
	// Prefer the root-cause panic over secondary "aborted by peer" ones.
	for r, e := range panics {
		if e != nil {
			if _, secondary := e.(abortError); !secondary {
				if l := m.cfg.Logger; l != nil {
					l.Error("processor panicked", "rank", r, "panic", fmt.Sprint(e))
				}
				panic(fmt.Sprintf("dist: processor %d panicked: %v", r, e))
			}
		}
	}
	for r, e := range panics {
		if e != nil {
			panic(fmt.Sprintf("dist: processor %d panicked: %v", r, e))
		}
	}
}

// abortError marks the secondary panics raised in peers when one processor
// fails, so Run can report the original failure instead.
type abortError struct{}

func (abortError) Error() string { return "dist: aborted by peer panic" }

// MaxNet returns the critical-path network counters: max over processors.
func (m *Machine) MaxNet() NetCounters {
	var out NetCounters
	for _, p := range m.procs {
		out = maxNet(out, p.Net)
	}
	return out
}

func maxNet(a, b NetCounters) NetCounters {
	return NetCounters{
		WordsSent:       max64(a.WordsSent, b.WordsSent),
		WordsRecv:       max64(a.WordsRecv, b.WordsRecv),
		MsgsSent:        max64(a.MsgsSent, b.MsgsSent),
		MsgsRecv:        max64(a.MsgsRecv, b.MsgsRecv),
		RemoteWordsSent: max64(a.RemoteWordsSent, b.RemoteWordsSent),
		RemoteWordsRecv: max64(a.RemoteWordsRecv, b.RemoteWordsRecv),
		RemoteMsgsSent:  max64(a.RemoteMsgsSent, b.RemoteMsgsSent),
		RemoteMsgsRecv:  max64(a.RemoteMsgsRecv, b.RemoteMsgsRecv),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MaxWritesTo returns the max over processors of words written into local
// level lvl (the quantity the Section 7 write bounds govern).
func (m *Machine) MaxWritesTo(lvl int) int64 {
	var w int64
	for _, p := range m.procs {
		if v := p.H.WritesTo(lvl); v > w {
			w = v
		}
	}
	return w
}

// Aggregate sums every processor's published counters into whole-machine
// totals: words, messages and flops across all local hierarchies. Each rank
// publishes at every Barrier and when its Run body returns, so Aggregate is
// exact after Run and, read while the processors run, covers each rank up
// to its last barrier: right after a Barrier, rank 0 reads exactly the
// supersteps completed so far. Safe to call from any goroutine at any time.
// Occupancy fields are zero: residency is per-processor state and does not
// aggregate.
func (m *Machine) Aggregate() *machine.CounterSet {
	out := machine.NewCounterSet(len(m.cfg.Levels))
	for _, p := range m.procs {
		p.pubMu.Lock()
		out.Add(p.pub)
		p.pubMu.Unlock()
	}
	return out
}

// RankSnapshot renders processor r's published counters as a snapshot under
// the machine's level geometry. Like Aggregate it is safe to call at any
// time and sees whole supersteps, so live per-rank metrics can be scraped
// while the processors run.
func (m *Machine) RankSnapshot(r int) machine.Snapshot {
	p := m.procs[r]
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	return machine.SnapshotOf(m.cfg.Levels, p.pub)
}

// RankSnapshots returns RankSnapshot for every rank, in rank order.
func (m *Machine) RankSnapshots() []machine.Snapshot {
	out := make([]machine.Snapshot, m.cfg.P)
	for r := range out {
		out[r] = m.RankSnapshot(r)
	}
	return out
}

// TotalNet sums network words sent over all processors.
func (m *Machine) TotalNet() int64 {
	var w int64
	for _, p := range m.procs {
		w += p.Net.WordsSent
	}
	return w
}

// Proc is one SPMD process.
type Proc struct {
	Rank int
	H    *machine.Hierarchy
	Net  NetCounters
	m    *Machine

	pubMu sync.Mutex
	pub   *machine.CounterSet // H's counters at the last Barrier or Run end
}

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.cfg.P }

// publish copies the hierarchy's counters into the rank's published set,
// occupancy left zero, for Aggregate and RankSnapshot to read.
func (p *Proc) publish() {
	p.pubMu.Lock()
	p.pub.Reset()
	p.pub.Add(p.H.Counters())
	p.pubMu.Unlock()
}

// link returns the channel of the ordered pair (from, to), creating it on
// first use. Both ends may race to create it; the CompareAndSwap keeps one.
func (m *Machine) link(from, to int) chan []float64 {
	slot := &m.links[from*m.cfg.P+to]
	if l := slot.Load(); l != nil {
		return *l
	}
	ch := make(chan []float64, linkCap)
	if slot.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *slot.Load()
}

// Send transmits data to processor `to`, charging words and (size-capped)
// messages. The slice is handed over, not copied: neither the sender nor
// any receiver may write it afterwards.
func (p *Proc) Send(to int, data []float64) {
	if to == p.Rank {
		panic("dist: self send")
	}
	w := int64(len(data))
	msgs := p.m.msgCount(w)
	p.Net.WordsSent += w
	p.Net.MsgsSent += msgs
	if p.RemotePeer(to) {
		p.Net.RemoteWordsSent += w
		p.Net.RemoteMsgsSent += msgs
	}
	select {
	case p.m.link(p.Rank, to) <- data:
	case <-p.m.abort:
		panic(abortError{})
	}
}

// Recv receives the next message from processor `from` in program order.
// The slice is read-only (see Send).
func (p *Proc) Recv(from int) []float64 {
	var data []float64
	link := p.m.link(from, p.Rank)
	select {
	case data = <-link:
	case <-p.m.abort:
		// Drain a message if one is already queued; otherwise give up.
		select {
		case data = <-link:
		default:
			panic(abortError{})
		}
	}
	w := int64(len(data))
	msgs := p.m.msgCount(w)
	p.Net.WordsRecv += w
	p.Net.MsgsRecv += msgs
	if p.RemotePeer(from) {
		p.Net.RemoteWordsRecv += w
		p.Net.RemoteMsgsRecv += msgs
	}
	return data
}

// RemotePeer reports whether rank `peer` lives on a different socket than
// this processor (always false on a single-socket machine).
func (p *Proc) RemotePeer(peer int) bool {
	return p.m.sockets[peer] != p.m.sockets[p.Rank]
}

// Socket returns this processor's socket.
func (p *Proc) Socket() int { return p.m.sockets[p.Rank] }

func (m *Machine) msgCount(words int64) int64 {
	if m.cfg.MaxMsgWords <= 0 || words <= m.cfg.MaxMsgWords {
		return 1
	}
	return (words + m.cfg.MaxMsgWords - 1) / m.cfg.MaxMsgWords
}

// Barrier blocks until every processor reaches it. The rank's event buffer
// is flushed into its recorders and its counters are published first, so a
// superstep's events are fully delivered before any peer proceeds past the
// barrier: batch boundaries never split a superstep's phase delta, and
// Aggregate or RankSnapshots read right after a barrier see whole
// supersteps.
func (p *Proc) Barrier() {
	p.H.Flush()
	p.publish()
	p.m.bar.wait()
}

// --- collectives -------------------------------------------------------------

// indexOf locates rank within group.
func indexOf(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("dist: rank %d not in group %v", rank, group))
}

// Bcast broadcasts root's data to every processor in group along a binomial
// tree (log |group| rounds on the critical path). Every group member must
// call it; non-roots pass nil and receive the payload. Each rank forwards
// the one slice it holds, so every member returns root's slice itself,
// read-only.
func (p *Proc) Bcast(group []int, root int, data []float64) []float64 {
	n := len(group)
	me := indexOf(group, p.Rank)
	rootIdx := indexOf(group, root)
	rel := (me - rootIdx + n) % n // position in the tree, root at 0
	if rel != 0 {
		// Receive from the parent: clear the highest set bit.
		data = p.Recv(group[(treeParent(rel)+rootIdx)%n])
	}
	// Forward to children: set bits above my lowest set bit (or all bits
	// for the root).
	for bit := intmath.NextPow2(rel + 1); rel+bit < n; bit <<= 1 {
		p.Send(group[(rel+bit+rootIdx)%n], data)
	}
	return data
}

// Reduce sums everyone's data onto root along the reversed binomial tree and
// returns the sum at root (nil elsewhere), in a slice of its own. Reduce
// never writes data; a leaf of the tree sends data itself, so the caller
// hands it over. Each sum adds the children in tree order onto a copy of
// the rank's own data.
func (p *Proc) Reduce(group []int, root int, data []float64) []float64 {
	n := len(group)
	me := indexOf(group, p.Rank)
	rootIdx := indexOf(group, root)
	rel := (me - rootIdx + n) % n
	first := intmath.NextPow2(rel + 1) // the bit of the first child
	acc := data
	if rel == 0 || rel+first < n {
		// The root returns its sum, and an inner node sums its
		// children: both write, so both need a copy.
		acc = make([]float64, len(data))
		copy(acc, data)
	}
	// Mirror of the broadcast tree: receive from each child, then send to
	// the parent.
	for bit := first; rel+bit < n; bit <<= 1 {
		child := p.Recv(group[(rel+bit+rootIdx)%n])
		if len(child) != len(acc) {
			panic("dist: reduce length mismatch")
		}
		for i := range acc {
			acc[i] += child[i]
		}
		p.H.Flops(int64(len(acc)))
	}
	if rel != 0 {
		p.Send(group[(treeParent(rel)+rootIdx)%n], acc)
		return nil
	}
	return acc
}

// treeParent clears the highest set bit: the binomial-tree parent of a
// nonzero relative rank.
func treeParent(rel int) int {
	return rel &^ (1 << (bits.Len(uint(rel)) - 1))
}

// Shift sends data to `to` and receives from `from`, the Cannon-step
// primitive: data is handed over (see Send) and the received slice is
// returned. A self-shift (to == from == this rank, e.g. a 1x1 grid) is a
// free local no-op. Buffered links make the exchange deadlock-free.
func (p *Proc) Shift(to, from int, data []float64) []float64 {
	if to == p.Rank && from == p.Rank {
		return data
	}
	p.Send(to, data)
	return p.Recv(from)
}

// --- staging helpers (local-hierarchy charges for network transfers) --------

// StageUpFromLevel charges the local cost of sending words that live in
// level lvl: they are read up through every interface below lvl-1... in this
// model, sending from L2 (level index len-2) is free locally, while sending
// data resident in a lower level first loads it into the level above.
func (p *Proc) StageUpFromLevel(lvl int, words int64) {
	// Moving from level lvl upward to the network-facing level (len-2).
	for i := lvl - 1; i >= p.networkLevel(); i-- {
		p.H.Load(i, words)
	}
}

// StageDownToLevel charges the local cost of storing received words from the
// network-facing level down into level lvl.
func (p *Proc) StageDownToLevel(lvl int, words int64) {
	for i := p.networkLevel(); i < lvl; i++ {
		p.H.Store(i, words)
	}
}

// StageUpFromLevelFor is StageUpFromLevel for words about to be sent to rank
// `peer`: when the peer lives on another socket the loads are classified
// remote (they feed the inter-socket link), otherwise the charge is identical
// to StageUpFromLevel. Word and message totals are the same either way.
func (p *Proc) StageUpFromLevelFor(peer, lvl int, words int64) {
	if !p.RemotePeer(peer) {
		p.StageUpFromLevel(lvl, words)
		return
	}
	for i := lvl - 1; i >= p.networkLevel(); i-- {
		p.H.LoadRemote(i, words)
	}
}

// StageDownToLevelFrom is StageDownToLevel for words just received from rank
// `peer`: stores of data that arrived over the inter-socket link are
// classified remote. These are the writes the asymmetric cost model makes
// expensive, so write-avoiding placement shows up directly in this counter.
func (p *Proc) StageDownToLevelFrom(peer, lvl int, words int64) {
	if !p.RemotePeer(peer) {
		p.StageDownToLevel(lvl, words)
		return
	}
	for i := p.networkLevel(); i < lvl; i++ {
		p.H.StoreRemote(i, words)
	}
}

// networkLevel is the index of the level the network reads from and writes
// to: the second-lowest level (DRAM in Model 2, L2 in Model 1).
func (p *Proc) networkLevel() int { return p.H.NumLevels() - 2 }

// --- barrier -----------------------------------------------------------------

type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	phase  int
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic("dist: barrier poisoned by a peer panic")
	}
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		panic("dist: barrier poisoned by a peer panic")
	}
}

func (b *barrier) poison() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
