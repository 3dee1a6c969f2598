package costmodel

import "writeavoid/internal/machine"

// Recorder streams machine events into the Section 7 alpha-beta hardware
// model as they happen: every Load crossing interface i is charged one
// upward message (alpha) plus its words (beta) at that interface's read
// coefficients, every Store at the write coefficients — so the L2->L3
// direction pays the NVM write penalty of an asymmetric HW. Attach it to a
// machine.Hierarchy to get the predicted wall-clock of the exact event
// stream an algorithm produced, rather than of a closed-form bound.
//
// The HW struct names two local interfaces (L1<->L2 and L2<->L3); events on
// interfaces beyond those are not charged. Flops are free (HW carries no
// compute rate); network traffic is metered by dist.NetCounters, not here.
type Recorder struct {
	machine.Sources
	hw     HW
	loadT  [2]float64 // read-direction time per interface: 21, 32
	storeT [2]float64 // write-direction time per interface: 12, 23
}

// NewRecorder builds a streaming cost recorder over hw.
func NewRecorder(hw HW) *Recorder {
	return &Recorder{hw: hw}
}

// Record charges a block of events in order, so the float accumulation is
// the same at any batch capacity.
func (r *Recorder) Record(events []machine.Event) {
	for i := range events {
		r.charge(&events[i])
	}
}

func (r *Recorder) charge(e *machine.Event) {
	if e.Arg < 0 || e.Arg > 1 {
		return
	}
	w := float64(e.Words)
	switch e.Kind {
	case machine.EvLoad:
		if e.Arg == 0 {
			r.loadT[0] += r.hw.Alpha21 + r.hw.Beta21*w
		} else {
			r.loadT[1] += r.hw.Alpha32 + r.hw.Beta32*w
		}
	case machine.EvStore:
		if e.Arg == 0 {
			r.storeT[0] += r.hw.Alpha12 + r.hw.Beta12*w
		} else {
			r.storeT[1] += r.hw.Alpha23 + r.hw.Beta23*w
		}
	}
}

// LoadTime returns the accumulated read-direction seconds at interface i,
// syncing batch-buffered events first (like every read method here).
func (r *Recorder) LoadTime(i int) float64 {
	r.Sync()
	return r.loadT[i]
}

// StoreTime returns the accumulated write-direction seconds at interface i.
func (r *Recorder) StoreTime(i int) float64 {
	r.Sync()
	return r.storeT[i]
}

// Omega returns the hardware's NVM write/read per-word asymmetry ω =
// Beta23/Beta32 — the explicit model parameter of the paper's successors
// (Blelloch et al., arXiv:1511.01038), read off the Section 7 coefficients.
// Symmetric hardware (DRAMOnly) reports 1.
func (r *Recorder) Omega() float64 {
	if r.hw.Beta23 == r.hw.Beta32 || r.hw.Beta32 == 0 {
		return 1
	}
	return r.hw.Beta23 / r.hw.Beta32
}

// Time returns total predicted seconds: all interfaces, both directions.
func (r *Recorder) Time() float64 {
	r.Sync()
	return r.loadT[0] + r.loadT[1] + r.storeT[0] + r.storeT[1]
}

// Reset drains buffered events and zeroes the accumulated times.
func (r *Recorder) Reset() {
	r.Sync()
	r.loadT = [2]float64{}
	r.storeT = [2]float64{}
}
