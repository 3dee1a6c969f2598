package machine

import "fmt"

// growingCounters is the grow-on-demand counter core of a Ledger: a
// CounterSet plus a level list that both extend themselves (with generically
// named levels "L2", "L3", ...) whenever an event addresses a level or
// interface beyond the geometry seen so far, so one ledger can observe a
// whole multi-section run across hierarchies of different shapes. The
// interface names ("L0<->L1", ...) are built once per geometry, not once per
// snapshot.
//
// Like CounterSet it is plain state driven synchronously; callers that read
// it from other goroutines must serialize.
type growingCounters struct {
	levels  []Level
	between []string // between[i] names interface i; rebuilt only on growth
	cur     *CounterSet
}

// newGrowingCounters seeds the geometry with the given levels (nil or a
// single level: starts at two generic levels). The slice is copied.
func newGrowingCounters(levels []Level) *growingCounters {
	if len(levels) < 2 {
		levels = GenericLevels(2)
	}
	g := &growingCounters{
		levels: append([]Level(nil), levels...),
		cur:    NewCounterSet(len(levels)),
	}
	g.name(0)
	return g
}

// fold accumulates one counter-bearing event, first growing the geometry
// when the event addresses a deeper level or interface than seen so far:
// interface i spans levels i and i+1, a level event needs level i itself.
func (g *growingCounters) fold(e *Event) {
	switch e.Kind {
	case EvLoad, EvStore:
		if e.Arg+2 > len(g.levels) {
			g.grow(e.Arg + 2)
		}
	case EvInit, EvDiscard:
		if e.Arg+1 > len(g.levels) {
			g.grow(e.Arg + 1)
		}
	}
	g.cur.record(e)
}

func (g *growingCounters) grow(need int) {
	old := len(g.levels)
	for i := old; i < need; i++ {
		g.levels = append(g.levels, Level{Name: fmt.Sprintf("L%d", i)})
	}
	g.cur.resize(len(g.levels))
	g.name(old - 1)
}

// name builds the interface names from interface from on.
func (g *growingCounters) name(from int) {
	g.between = g.between[:max(from, 0)]
	for i := len(g.between); i+1 < len(g.levels); i++ {
		g.between = append(g.between, g.levels[i].Name+"<->"+g.levels[i+1].Name)
	}
}

// Snapshot renders the cumulative counters under the current geometry.
func (g *growingCounters) Snapshot() Snapshot { return g.render(g.cur) }

// render renders c, which has at most as many levels as the geometry, under
// the geometry's names: levels only ever grow at the end, so a smaller
// counter set's names are a prefix of the current ones.
func (g *growingCounters) render(c *CounterSet) Snapshot {
	return snapshotOf(g.levels[:len(c.Lvl)], g.between[:len(c.Iface)], c)
}

// resize grows the counter set to n levels in place; the new levels and
// interfaces start at zero.
func (c *CounterSet) resize(n int) {
	if n <= len(c.Lvl) {
		return
	}
	c.Iface = append(c.Iface, make([]InterfaceCounters, n-1-len(c.Iface))...)
	c.Lvl = append(c.Lvl, make([]LevelCounters, n-len(c.Lvl))...)
}

// copyFrom makes c an exact copy of src, in src's geometry.
func (c *CounterSet) copyFrom(src *CounterSet) {
	n := len(src.Lvl)
	c.resize(n)
	c.Iface, c.Lvl = c.Iface[:n-1], c.Lvl[:n]
	copy(c.Iface, src.Iface)
	copy(c.Lvl, src.Lvl)
	c.FlopCount = src.FlopCount
}

// Row layout: a counter set flattened into int64s, the unit span trees log
// at every boundary. Flops come first, then six words per interface, then
// four per level, so an n-level row is 10n-5 words long and a row's level
// count follows from its length.
const (
	rowScalars = 1
	rowIface   = 6
	rowLevel   = 4
)

// RowWidth returns the length of an n-level row.
func RowWidth(levels int) int { return (rowIface+rowLevel)*levels + rowScalars - rowIface }

// rowLevels returns the level count of a row.
func rowLevels(row []int64) int { return (len(row) - rowScalars + rowIface) / (rowIface + rowLevel) }

// AppendRow appends c flattened into one row.
func (c *CounterSet) AppendRow(dst []int64) []int64 {
	dst = append(dst, c.FlopCount)
	for i := range c.Iface {
		f := &c.Iface[i]
		dst = append(dst, f.LoadWords, f.LoadMsgs, f.StoreWords, f.StoreMsgs, f.RemoteLoadWords, f.RemoteStoreWords)
	}
	for i := range c.Lvl {
		l := &c.Lvl[i]
		dst = append(dst, l.InitWords, l.DiscardWords, l.Occupancy, l.PeakOccupancy)
	}
	return dst
}

var zeroRow [rowScalars]int64

// SetRow sets c to the counters of one row, in the row's geometry.
func (c *CounterSet) SetRow(row []int64) { c.SetRowDiff(row, zeroRow[:]) }

// SetRowDiff sets c to row hi minus row lo, every counter (occupancies
// included) differenced. c takes hi's geometry; lo may have fewer levels,
// which count as zero, exactly as Snapshot.Sub pads a snapshot taken before
// the geometry grew.
func (c *CounterSet) SetRowDiff(hi, lo []int64) {
	n := rowLevels(hi)
	if cap(c.Lvl) < n {
		c.Iface = make([]InterfaceCounters, n-1)
		c.Lvl = make([]LevelCounters, n)
	}
	c.Iface, c.Lvl = c.Iface[:n-1], c.Lvl[:n]
	c.FlopCount = hi[0] - lo[0]
	m := rowLevels(lo)
	hiOff, loOff := rowScalars, rowScalars
	for i := range c.Iface {
		r := hi[hiOff : hiOff+rowIface]
		c.Iface[i] = InterfaceCounters{r[0], r[1], r[2], r[3], r[4], r[5]}
		if i < m-1 {
			r, x := lo[loOff:loOff+rowIface], &c.Iface[i]
			x.LoadWords -= r[0]
			x.LoadMsgs -= r[1]
			x.StoreWords -= r[2]
			x.StoreMsgs -= r[3]
			x.RemoteLoadWords -= r[4]
			x.RemoteStoreWords -= r[5]
			loOff += rowIface
		}
		hiOff += rowIface
	}
	for i := range c.Lvl {
		r := hi[hiOff : hiOff+rowLevel]
		c.Lvl[i] = LevelCounters{r[0], r[1], r[2], r[3]}
		if i < m {
			r, x := lo[loOff:loOff+rowLevel], &c.Lvl[i]
			x.InitWords -= r[0]
			x.DiscardWords -= r[1]
			x.Occupancy -= r[2]
			x.PeakOccupancy -= r[3]
			loOff += rowLevel
		}
		hiOff += rowLevel
	}
}

// setDiff sets c to a minus b counter for counter (occupancies included);
// c takes a's geometry, and levels b lacks count as zero.
func (c *CounterSet) setDiff(a, b *CounterSet) {
	c.copyFrom(a)
	for i := range b.Iface {
		x, y := &c.Iface[i], &b.Iface[i]
		x.LoadWords -= y.LoadWords
		x.LoadMsgs -= y.LoadMsgs
		x.StoreWords -= y.StoreWords
		x.StoreMsgs -= y.StoreMsgs
		x.RemoteLoadWords -= y.RemoteLoadWords
		x.RemoteStoreWords -= y.RemoteStoreWords
	}
	for i := range b.Lvl {
		x, y := &c.Lvl[i], &b.Lvl[i]
		x.InitWords -= y.InitWords
		x.DiscardWords -= y.DiscardWords
		x.Occupancy -= y.Occupancy
		x.PeakOccupancy -= y.PeakOccupancy
	}
	c.FlopCount -= b.FlopCount
}
