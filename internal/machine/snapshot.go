package machine

// Snapshot is a JSON-serializable view of a hierarchy's counters, consumed by
// `wabench -json`, the streaming layer (see stream.go), and any external
// tooling. Every derived quantity the text report shows (writesTo, readsFrom,
// traffic, Theorem 1) is precomputed so consumers need no knowledge of the
// model.
//
// All counter fields are linear in the underlying event stream, so snapshots
// form a group under Sub and Add: the difference of two snapshots of the same
// geometry is the snapshot of the events between them, and summing a stream
// of deltas reconstructs the cumulative snapshot exactly. The derived boolean
// (Theorem1Holds) is recomputed from the resulting counters.
type Snapshot struct {
	Levels     []LevelSnapshot     `json:"levels"`
	Interfaces []InterfaceSnapshot `json:"interfaces"`
	Flops      int64               `json:"flops"`
}

// LevelSnapshot is one memory level's counters.
type LevelSnapshot struct {
	Name          string `json:"name"`
	Size          int64  `json:"size,omitempty"`
	InitWords     int64  `json:"initWords"`
	DiscardWords  int64  `json:"discardWords"`
	Occupancy     int64  `json:"occupancy"`
	PeakOccupancy int64  `json:"peakOccupancy"`
	WritesTo      int64  `json:"writesTo"`
	ReadsFrom     int64  `json:"readsFrom"`
}

// InterfaceSnapshot is one interface's traffic counters.
type InterfaceSnapshot struct {
	Between    string `json:"between"`
	LoadWords  int64  `json:"loadWords"`
	LoadMsgs   int64  `json:"loadMsgs"`
	StoreWords int64  `json:"storeWords"`
	StoreMsgs  int64  `json:"storeMsgs"`
	// Remote sub-counters: the inter-socket share of LoadWords/StoreWords
	// (local = total - remote). Omitted when zero so single-socket output
	// is byte-identical to the pre-socket format.
	RemoteLoadWords  int64 `json:"remoteLoadWords,omitempty"`
	RemoteStoreWords int64 `json:"remoteStoreWords,omitempty"`
	Traffic          int64 `json:"traffic"`
	Theorem1Holds    bool  `json:"theorem1Holds"`
}

// SnapshotOf renders any CounterSet as a Snapshot, deriving writesTo,
// readsFrom, traffic and the Theorem 1 check from the raw counters. The level
// list supplies names and sizes; it must have as many entries as the counter
// set has levels. This is how a dist machine's merged rank counters and
// stream-recorder counters become the same wire format a Hierarchy snapshot
// uses.
func SnapshotOf(levels []Level, c *CounterSet) Snapshot { return snapshotOf(levels, nil, c) }

// snapshotOf is SnapshotOf with the interface names given (between[i] names
// interface i), or built from the level names when between is nil.
func snapshotOf(levels []Level, between []string, c *CounterSet) Snapshot {
	if len(levels) != len(c.Lvl) {
		panic("machine: SnapshotOf level count mismatch")
	}
	s := Snapshot{Flops: c.FlopCount}
	s.Levels = make([]LevelSnapshot, len(levels))
	for i, lv := range levels {
		lc := c.Lvl[i]
		ls := LevelSnapshot{
			Name:          lv.Name,
			Size:          lv.Size,
			InitWords:     lc.InitWords,
			DiscardWords:  lc.DiscardWords,
			Occupancy:     lc.Occupancy,
			PeakOccupancy: lc.PeakOccupancy,
			WritesTo:      lc.InitWords,
			ReadsFrom:     0,
		}
		// Loads across interface i write level i and read level i+1;
		// stores across interface i read level i and write level i+1.
		if i < len(c.Iface) {
			ls.WritesTo += c.Iface[i].LoadWords
			ls.ReadsFrom += c.Iface[i].StoreWords
		}
		if i > 0 {
			ls.WritesTo += c.Iface[i-1].StoreWords
			ls.ReadsFrom += c.Iface[i-1].LoadWords
		}
		s.Levels[i] = ls
	}
	if len(c.Iface) > 0 {
		s.Interfaces = make([]InterfaceSnapshot, len(c.Iface))
	}
	for i := range c.Iface {
		ic := c.Iface[i]
		writesFast := ic.LoadWords + c.Lvl[i].InitWords
		name := ""
		if between != nil {
			name = between[i]
		} else {
			name = levels[i].Name + "<->" + levels[i+1].Name
		}
		s.Interfaces[i] = InterfaceSnapshot{
			Between:          name,
			LoadWords:        ic.LoadWords,
			LoadMsgs:         ic.LoadMsgs,
			StoreWords:       ic.StoreWords,
			StoreMsgs:        ic.StoreMsgs,
			RemoteLoadWords:  ic.RemoteLoadWords,
			RemoteStoreWords: ic.RemoteStoreWords,
			Traffic:          ic.LoadWords + ic.StoreWords,
			Theorem1Holds:    2*writesFast >= ic.LoadWords+ic.StoreWords,
		}
	}
	return s
}

// Snapshot captures the hierarchy's current default counters.
func (h *Hierarchy) Snapshot() Snapshot {
	return SnapshotOf(h.levels, h.def)
}

// Sub returns the counter-wise difference s - prev: the snapshot of exactly
// the events recorded between prev and s. Derived fields (writesTo,
// readsFrom, traffic, Theorem 1) are recomputed on the differenced counters,
// so a delta is itself a well-formed snapshot of the interval's event stream.
// Occupancy and PeakOccupancy are differenced like every other field; a
// negative occupancy delta simply means the interval drained residency. Both
// snapshots must have the same geometry.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return s.combine(prev, -1)
}

// Add returns the counter-wise sum s + other. Summing a contiguous run of
// deltas produced by Sub telescopes back to the cumulative snapshot,
// counter for counter — the invariant the streaming tests pin.
func (s Snapshot) Add(other Snapshot) Snapshot {
	return s.combine(other, +1)
}

func (s Snapshot) combine(other Snapshot, sign int64) Snapshot {
	// A stream whose geometry grew mid-run (StreamRecorder observing a
	// deeper hierarchy) produces snapshots of different depths; the
	// smaller one is padded with zero counters — exactly what the missing
	// levels held before they were first observed.
	if len(s.Levels) < len(other.Levels) {
		s = padSnapshot(s, other)
	} else if len(other.Levels) < len(s.Levels) {
		other = padSnapshot(other, s)
	}
	if len(s.Levels) != len(other.Levels) || len(s.Interfaces) != len(other.Interfaces) {
		panic("machine: snapshot geometry mismatch")
	}
	out := Snapshot{Flops: s.Flops + sign*other.Flops}
	out.Levels = make([]LevelSnapshot, len(s.Levels))
	for i := range s.Levels {
		a, b := s.Levels[i], other.Levels[i]
		out.Levels[i] = LevelSnapshot{
			Name:          a.Name,
			Size:          a.Size,
			InitWords:     a.InitWords + sign*b.InitWords,
			DiscardWords:  a.DiscardWords + sign*b.DiscardWords,
			Occupancy:     a.Occupancy + sign*b.Occupancy,
			PeakOccupancy: a.PeakOccupancy + sign*b.PeakOccupancy,
			WritesTo:      a.WritesTo + sign*b.WritesTo,
			ReadsFrom:     a.ReadsFrom + sign*b.ReadsFrom,
		}
	}
	out.Interfaces = make([]InterfaceSnapshot, len(s.Interfaces))
	for i := range s.Interfaces {
		a, b := s.Interfaces[i], other.Interfaces[i]
		ic := InterfaceSnapshot{
			Between:          a.Between,
			LoadWords:        a.LoadWords + sign*b.LoadWords,
			LoadMsgs:         a.LoadMsgs + sign*b.LoadMsgs,
			StoreWords:       a.StoreWords + sign*b.StoreWords,
			StoreMsgs:        a.StoreMsgs + sign*b.StoreMsgs,
			RemoteLoadWords:  a.RemoteLoadWords + sign*b.RemoteLoadWords,
			RemoteStoreWords: a.RemoteStoreWords + sign*b.RemoteStoreWords,
		}
		ic.Traffic = ic.LoadWords + ic.StoreWords
		writesFast := ic.LoadWords + out.Levels[i].InitWords
		ic.Theorem1Holds = 2*writesFast >= ic.Traffic
		out.Interfaces[i] = ic
	}
	return out
}

// padSnapshot extends small with zeroed levels and interfaces (named after
// big's) so snapshots taken before and after a stream's geometry grew still
// combine exactly: counters a smaller snapshot never saw were zero then by
// construction.
func padSnapshot(small, big Snapshot) Snapshot {
	out := small
	out.Levels = append([]LevelSnapshot(nil), small.Levels...)
	out.Interfaces = append([]InterfaceSnapshot(nil), small.Interfaces...)
	for i := len(out.Levels); i < len(big.Levels); i++ {
		out.Levels = append(out.Levels, LevelSnapshot{Name: big.Levels[i].Name, Size: big.Levels[i].Size})
	}
	for i := len(out.Interfaces); i < len(big.Interfaces); i++ {
		out.Interfaces = append(out.Interfaces, InterfaceSnapshot{Between: big.Interfaces[i].Between})
	}
	return out
}
