package machine

import (
	"fmt"
	"math"
	"strings"
)

// CostParams gives the alpha-beta communication cost coefficients for one
// interface, split by direction because the paper's whole point is that the
// two directions can have very different costs (NVM writes vs reads).
//
// All times are in arbitrary consistent units (e.g. seconds): alpha is the
// per-message latency, beta the per-word reciprocal bandwidth.
type CostParams struct {
	AlphaLoad  float64 // latency of a message moving slow->fast
	BetaLoad   float64 // per-word cost of reading slow / writing fast
	AlphaStore float64 // latency of a message moving fast->slow
	BetaStore  float64 // per-word cost of writing slow (the expensive one)
	// BetaRemoteLoad/BetaRemoteStore price the inter-socket share of the
	// interface's words (the RemoteLoadWords/RemoteStoreWords
	// sub-counters); the remaining local share keeps the β above. This is
	// the asymmetric-link regime of Blelloch et al. (arXiv:1511.01038)
	// layered on the paper's per-interface asymmetry: on a NUMA machine a
	// remote NVM store pays both penalties at once.
	//
	// Validity convention: the remote βs apply when set through
	// SetRemoteBetas (which makes a genuinely free remote link, β=0,
	// expressible) or — for struct-literal back-compat — when nonzero.
	// Otherwise remote words are priced like local ones, so flat-machine
	// models built from zero values are unchanged.
	BetaRemoteLoad  float64
	BetaRemoteStore float64
	remoteSet       bool
}

// SetRemoteBetas sets the remote per-word costs explicitly. Unlike assigning
// the fields directly, this marks them valid even at zero, so a free remote
// link is expressible (the zero value of CostParams still means "remote same
// as local").
func (p *CostParams) SetRemoteBetas(load, store float64) {
	p.BetaRemoteLoad = load
	p.BetaRemoteStore = store
	p.remoteSet = true
}

// RemoteBetasSet reports whether the remote βs were set via SetRemoteBetas.
func (p CostParams) RemoteBetasSet() bool { return p.remoteSet }

// betaRemoteLoad returns the per-word cost of a remote load (local β when no
// remote β is configured).
func (p CostParams) betaRemoteLoad() float64 {
	if p.remoteSet || p.BetaRemoteLoad != 0 {
		return p.BetaRemoteLoad
	}
	return p.BetaLoad
}

func (p CostParams) betaRemoteStore() float64 {
	if p.remoteSet || p.BetaRemoteStore != 0 {
		return p.BetaRemoteStore
	}
	return p.BetaStore
}

// Omega returns the interface's write/read per-word asymmetry ω =
// BetaStore/BetaLoad — the first-class cost-model parameter of the paper's
// successors (Blelloch et al., arXiv:1511.01038; Gu, arXiv:1809.09330). A
// symmetric interface reports 1; so does a degenerate one with both βs zero.
func (p CostParams) Omega() float64 {
	if p.BetaStore == p.BetaLoad {
		return 1
	}
	if p.BetaLoad == 0 {
		return math.Inf(1)
	}
	return p.BetaStore / p.BetaLoad
}

// loadTime prices msgs messages carrying words words, of which remote crossed
// the inter-socket link.
func (p CostParams) loadTime(msgs, words, remote int64) float64 {
	return p.AlphaLoad*float64(msgs) + p.BetaLoad*float64(words-remote) + p.betaRemoteLoad()*float64(remote)
}

func (p CostParams) storeTime(msgs, words, remote int64) float64 {
	return p.AlphaStore*float64(msgs) + p.BetaStore*float64(words-remote) + p.betaRemoteStore()*float64(remote)
}

// CostModel assigns CostParams to each interface of a hierarchy, plus a
// per-flop cost.
//
// WriteBuffer models the burst buffers of the paper's Section 2.2: when set,
// writes at an interface are assumed to overlap perfectly with reads, so the
// interface's time is max(load cost, store cost) rather than their sum — at
// best a 2x improvement, which (as the paper notes) changes no asymptotic
// conclusion and does not remove the per-word energy cost of writes.
type CostModel struct {
	Iface       []CostParams
	PerFlop     float64
	WriteBuffer bool
}

// SymmetricDRAM returns a cost model where reads and writes cost the same at
// every interface; useful as a baseline.
func SymmetricDRAM(nIfaces int, alpha, beta float64) CostModel {
	cm := CostModel{Iface: make([]CostParams, nIfaces)}
	for i := range cm.Iface {
		cm.Iface[i] = CostParams{AlphaLoad: alpha, BetaLoad: beta, AlphaStore: alpha, BetaStore: beta}
	}
	return cm
}

// NVMBacked returns a cost model whose lowest interface has writes a factor
// writePenalty more expensive than reads, modeling an NVM bottom level, with
// the upper interfaces symmetric and a factor speedup faster per level going
// up.
func NVMBacked(nIfaces int, alpha, beta, writePenalty, speedup float64) CostModel {
	cm := CostModel{Iface: make([]CostParams, nIfaces)}
	scale := 1.0
	for i := nIfaces - 1; i >= 0; i-- {
		p := CostParams{
			AlphaLoad:  alpha * scale,
			BetaLoad:   beta * scale,
			AlphaStore: alpha * scale,
			BetaStore:  beta * scale,
		}
		if i == nIfaces-1 {
			p.AlphaStore *= writePenalty
			p.BetaStore *= writePenalty
		}
		cm.Iface[i] = p
		scale /= speedup
	}
	return cm
}

// NUMA layers an inter-socket penalty onto an existing model: remote words
// cost loadPenalty (slow->fast) respectively storePenalty (fast->slow) times
// the local per-word β at every interface. Directional penalties compose the
// two asymmetries the repo models — NVM writes dearer than reads (the base
// model), remote dearer than local (this one) — so a remote store pays both.
// With penalties of 1 (or a flat topology, which records no remote words) the
// model prices every run exactly like the base model.
func NUMA(base CostModel, loadPenalty, storePenalty float64) CostModel {
	cm := CostModel{
		Iface:       append([]CostParams(nil), base.Iface...),
		PerFlop:     base.PerFlop,
		WriteBuffer: base.WriteBuffer,
	}
	for i := range cm.Iface {
		cm.Iface[i].SetRemoteBetas(cm.Iface[i].BetaLoad*loadPenalty, cm.Iface[i].BetaStore*storePenalty)
	}
	return cm
}

// Asymmetric returns the (M, ω)-asymmetric cost model of Blelloch et al.
// (arXiv:1511.01038) on a two-level machine: per-word loads cost 1, per-word
// stores cost ω, messages and flops are free — so TimeOf reads directly as
// the ω-weighted word count (reads + ω·writes) the write-efficiency
// literature states its bounds in.
func Asymmetric(omega float64) CostModel {
	return AsymmetricNVM(1, 0, 1, omega)
}

// AsymmetricNVM generalizes Asymmetric to an nIfaces-interface hierarchy with
// explicit α/β coefficients: every interface is symmetric except the lowest,
// whose stores (both the per-message α and the per-word β) cost ω times its
// loads — the ω knob applied to the NVM bottom level of the paper's Section 2
// machine.
func AsymmetricNVM(nIfaces int, alpha, beta, omega float64) CostModel {
	cm := CostModel{Iface: make([]CostParams, nIfaces)}
	for i := range cm.Iface {
		p := CostParams{AlphaLoad: alpha, BetaLoad: beta, AlphaStore: alpha, BetaStore: beta}
		if i == nIfaces-1 {
			p.AlphaStore *= omega
			p.BetaStore *= omega
		}
		cm.Iface[i] = p
	}
	return cm
}

// Omega returns the model's write/read cost asymmetry: the ω of the deepest
// (slowest, in the paper's machines nonvolatile) interface. It is the ratio
// an ω-aware algorithm should consult when trading extra reads for fewer
// writes at the bottom of the hierarchy.
func (cm CostModel) Omega() float64 {
	if len(cm.Iface) == 0 {
		return 1
	}
	return cm.Iface[len(cm.Iface)-1].Omega()
}

// Time evaluates the model against a hierarchy's measured counters.
func (cm CostModel) Time(h *Hierarchy) float64 {
	if len(cm.Iface) != h.NumLevels()-1 {
		panic(fmt.Sprintf("machine: cost model has %d interfaces, hierarchy has %d",
			len(cm.Iface), h.NumLevels()-1))
	}
	t := cm.PerFlop * float64(h.FlopCount())
	for i, p := range cm.Iface {
		c := h.Interface(i)
		load := p.loadTime(c.LoadMsgs, c.LoadWords, c.RemoteLoadWords)
		store := p.storeTime(c.StoreMsgs, c.StoreWords, c.RemoteStoreWords)
		if cm.WriteBuffer {
			t += math.Max(load, store)
		} else {
			t += load + store
		}
	}
	return t
}

// TimeOf evaluates the model against a bare CounterSet (an aggregated dist
// machine, a ledger's fold) without needing a Hierarchy.
func (cm CostModel) TimeOf(c *CounterSet) float64 {
	if len(cm.Iface) != len(c.Iface) {
		panic(fmt.Sprintf("machine: cost model has %d interfaces, counters have %d",
			len(cm.Iface), len(c.Iface)))
	}
	t := cm.PerFlop * float64(c.FlopCount)
	for i, p := range cm.Iface {
		ic := c.Iface[i]
		load := p.loadTime(ic.LoadMsgs, ic.LoadWords, ic.RemoteLoadWords)
		store := p.storeTime(ic.StoreMsgs, ic.StoreWords, ic.RemoteStoreWords)
		if cm.WriteBuffer {
			t += math.Max(load, store)
		} else {
			t += load + store
		}
	}
	return t
}

// WriteEnergy returns the per-word write cost summed over all interfaces
// (messages excluded): the quantity a write-buffer cannot hide.
func (cm CostModel) WriteEnergy(h *Hierarchy) float64 {
	if len(cm.Iface) != h.NumLevels()-1 {
		panic(fmt.Sprintf("machine: cost model has %d interfaces, hierarchy has %d",
			len(cm.Iface), h.NumLevels()-1))
	}
	var e float64
	for i, p := range cm.Iface {
		c := h.Interface(i)
		e += p.BetaStore*float64(c.StoreWords-c.RemoteStoreWords) + p.betaRemoteStore()*float64(c.RemoteStoreWords)
		e += p.BetaLoad*float64(c.LoadWords-c.RemoteLoadWords) + p.betaRemoteLoad()*float64(c.RemoteLoadWords)
	}
	return e
}

// Breakdown renders the per-interface cost contributions.
func (cm CostModel) Breakdown(h *Hierarchy) string {
	var b strings.Builder
	for i, p := range cm.Iface {
		c := h.Interface(i)
		load := p.loadTime(c.LoadMsgs, c.LoadWords, c.RemoteLoadWords)
		store := p.storeTime(c.StoreMsgs, c.StoreWords, c.RemoteStoreWords)
		fmt.Fprintf(&b, "iface %d (%s<->%s): load %.4g store %.4g\n",
			i, h.LevelInfo(i).Name, h.LevelInfo(i+1).Name, load, store)
	}
	if cm.PerFlop > 0 {
		fmt.Fprintf(&b, "flops: %.4g\n", cm.PerFlop*float64(h.FlopCount()))
	}
	return b.String()
}
