package machine

import (
	"math"
	"testing"
)

// Asymmetric(ω) is the (M, ω) model: loads cost their word count, stores ω
// times theirs, and Omega() reads the knob back.
func TestAsymmetricModel(t *testing.T) {
	cm := Asymmetric(8)
	if got := cm.Omega(); got != 8 {
		t.Fatalf("Omega() = %g want 8", got)
	}
	h := TwoLevel(64)
	h.Load(0, 10)
	h.Store(0, 3)
	if got := cm.Time(h); !almostEq(got, 10+8*3) {
		t.Fatalf("asymmetric time %g want 34", got)
	}
	// ω=1 is the symmetric baseline.
	if got := Asymmetric(1).Time(h); !almostEq(got, 13) {
		t.Fatalf("ω=1 time %g want 13", got)
	}
}

// AsymmetricNVM applies ω only at the lowest interface; the upper ones stay
// symmetric, and the model-level Omega() reports the bottom interface's ratio.
func TestAsymmetricNVMOmegaAtBottom(t *testing.T) {
	cm := AsymmetricNVM(3, 0.5, 2, 16)
	if got := cm.Omega(); got != 16 {
		t.Fatalf("Omega() = %g want 16", got)
	}
	for i := 0; i < 2; i++ {
		if got := cm.Iface[i].Omega(); got != 1 {
			t.Fatalf("iface %d ω = %g want 1", i, got)
		}
		if cm.Iface[i].AlphaStore != 0.5 || cm.Iface[i].BetaStore != 2 {
			t.Fatalf("iface %d upper coefficients scaled unexpectedly", i)
		}
	}
	if cm.Iface[2].AlphaStore != 0.5*16 || cm.Iface[2].BetaStore != 2*16 {
		t.Fatal("bottom interface store coefficients not scaled by ω")
	}
	// NVMBacked's writePenalty is the same ω in the legacy spelling.
	if got := NVMBacked(2, 1, 1, 8, 4).Omega(); got != 8 {
		t.Fatalf("NVMBacked ω = %g want 8", got)
	}
	if got := SymmetricDRAM(2, 1, 1).Omega(); got != 1 {
		t.Fatalf("symmetric ω = %g want 1", got)
	}
}

// Degenerate ω readings: empty models and zero-β interfaces report 1 (no
// asymmetry), a read-free interface reports +Inf.
func TestOmegaDegenerate(t *testing.T) {
	if got := (CostModel{}).Omega(); got != 1 {
		t.Fatalf("empty model ω = %g want 1", got)
	}
	if got := (CostParams{}).Omega(); got != 1 {
		t.Fatalf("zero params ω = %g want 1", got)
	}
	if got := (CostParams{BetaStore: 3}).Omega(); !math.IsInf(got, 1) {
		t.Fatalf("read-free interface ω = %g want +Inf", got)
	}
}

// The remote-β validity convention: a genuinely free remote link (β=0) is
// expressible through SetRemoteBetas, while the zero value and legacy nonzero
// struct literals behave exactly as before.
func TestRemoteBetaZeroExpressible(t *testing.T) {
	run := func() *Hierarchy {
		h := TwoLevel(64)
		h.Load(0, 10)
		h.LoadRemote(0, 5)
		h.StoreRemote(0, 4)
		return h
	}

	// Free remote link: remote words cost nothing, local keep β=2.
	free := SymmetricDRAM(1, 0, 2)
	free.Iface[0].SetRemoteBetas(0, 0)
	if got := free.Time(run()); !almostEq(got, 20) {
		t.Fatalf("free remote link time %g want 20 (local words only)", got)
	}
	if !free.Iface[0].RemoteBetasSet() {
		t.Fatal("RemoteBetasSet must report explicit setting")
	}

	// Zero value: remote priced like local (flat models unchanged).
	flat := SymmetricDRAM(1, 0, 2)
	if got := flat.Time(run()); !almostEq(got, 38) {
		t.Fatalf("flat time %g want 38", got)
	}

	// Legacy struct-literal nonzero remote βs still override without the flag.
	legacy := SymmetricDRAM(1, 0, 2)
	legacy.Iface[0].BetaRemoteLoad = 4
	legacy.Iface[0].BetaRemoteStore = 8
	if legacy.Iface[0].RemoteBetasSet() {
		t.Fatal("struct-literal assignment must not claim explicit setting")
	}
	// 10*2 + 5*4 + 4*8 = 72
	if got := legacy.Time(run()); !almostEq(got, 72) {
		t.Fatalf("legacy literal time %g want 72", got)
	}

	// WriteEnergy honors the same convention.
	if got := free.WriteEnergy(run()); !almostEq(got, 20) {
		t.Fatalf("free remote WriteEnergy %g want 20", got)
	}
}

// An asymmetric model prices loads at β and stores at ωβ.
func TestAsymmetricModelPricesStoresAtOmega(t *testing.T) {
	cm := Asymmetric(4)
	if got := cm.Omega(); got != 4 {
		t.Fatalf("model ω = %g want 4", got)
	}
	h := TwoLevel(64)
	h.Load(0, 6)
	if got := cm.Time(h); !almostEq(got, 6) {
		t.Fatalf("load time %g want 6", got)
	}
	h.Store(0, 5)
	if got := cm.Time(h); !almostEq(got, 6+4*5) {
		t.Fatalf("load+store time %g want 26", got)
	}
}
