package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"writeavoid/internal/costmodel"
	"writeavoid/internal/dist"
	"writeavoid/internal/krylov"
	"writeavoid/internal/lowerbounds"
	"writeavoid/internal/matrix"
	"writeavoid/internal/plu"
	"writeavoid/internal/pmm"
)

// Table1Measured holds the measured counterpart of one Table 1 column.
type Table1Measured struct {
	Algorithm  string
	P          int   // processor count (differs across columns: same Q, different c)
	NetWords   int64 // per-processor (critical path)
	L2L1Loads  int64 // words L2->L1 (max over procs)
	L1L2Stores int64 // words L1->L2
	NVMReads   int64 // words L3->L2
	NVMWrites  int64 // words L2->L3
	W2Bound    float64
}

// Table1 runs 2DMML2, 2.5DMML2 and 2.5DMML3 at a small scale and reports the
// measured per-processor words next to the W2 bound; the analytic rows of
// the paper's Table 1 are printed separately from costmodel.
func (s *Session) Table1(quick bool) []Table1Measured {
	s.mark("table1")
	n, q := 64, 4
	if !quick {
		n = 128
	}
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)

	configs := []struct {
		name string
		cfg  pmm.Config
	}{
		{"2DMML2", pmm.Config{Q: q, C: 1, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8}},
		{"2.5DMML2 c=2", pmm.Config{Q: q, C: 2, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8}},
		{"2.5DMML3 c=4", pmm.Config{Q: q, C: 4, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8, UseL3: true}},
	}
	var rows []Table1Measured
	for _, tc := range configs {
		tc.cfg.Observe = s.distObserve("table1 " + tc.name)
		_, m, err := pmm.MM25D(tc.cfg, a, b)
		if err != nil {
			panic(err)
		}
		var l21, l12, r32, w23 int64
		for r := 0; r < m.P(); r++ {
			h := m.Proc(r).H
			if v := h.Interface(0).LoadWords; v > l21 {
				l21 = v
			}
			if v := h.Interface(0).StoreWords; v > l12 {
				l12 = v
			}
			if v := h.Interface(1).LoadWords; v > r32 {
				r32 = v
			}
			if v := h.Interface(1).StoreWords; v > w23 {
				w23 = v
			}
		}
		row := Table1Measured{
			Algorithm:  tc.name,
			P:          tc.cfg.P(),
			NetWords:   m.MaxNet().WordsSent,
			L2L1Loads:  l21,
			L1L2Stores: l12,
			NVMReads:   r32,
			NVMWrites:  w23,
			W2Bound:    lowerbounds.W2(n, tc.cfg.P(), float64(tc.cfg.C)),
		}
		s.conform("w2-network-floor", "table1/"+tc.name,
			float64(row.NetWords), row.W2Bound, 1, false)
		s.distDone("table1 "+tc.name, m)
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders the measured Table 1 plus the paper's analytic rows.
func FormatTable1(rows []Table1Measured, hw costmodel.HW, n, p int, c2, c3 float64) string {
	var b strings.Builder
	b.WriteString("== Table 1 (measured, per-processor words, small scale)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "algorithm\tnet words\tW2 bound\tL2->L1\tL1->L2\tNVM reads\tNVM writes\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%d\t%d\t%d\t\n",
			r.Algorithm, r.NetWords, r.W2Bound, r.L2L1Loads, r.L1L2Stores, r.NVMReads, r.NVMWrites)
	}
	tw.Flush()

	fmt.Fprintf(&b, "\n== Table 1 (analytic, n=%d P=%d c2=%g c3=%g; seconds per term)\n", n, p, c2, c3)
	tw = tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "movement\tparameter\t2DMML2\t2.5DMML2\t2.5DMML3\t\n")
	for _, r := range costmodel.Table1(hw, n, p, c2, c3) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", r.Movement, r.Param,
			cell(r.Costs[0]), cell(r.Costs[1]), cell(r.Costs[2]))
	}
	tot := costmodel.Totals(costmodel.Table1(hw, n, p, c2, c3))
	fmt.Fprintf(tw, "TOTAL\t\t%s\t%s\t%s\t\n", cell(tot[0]), cell(tot[1]), cell(tot[2]))
	tw.Flush()
	fmt.Fprintf(&b, "dominant-cost ratio 2.5DMML2/2.5DMML3 = %.3f (>1 favors using NVM)\n",
		costmodel.Model21Ratio(hw, c2, c3))
	return b.String()
}

func cell(v float64) string {
	if math.IsNaN(v) {
		return "NA"
	}
	return fmt.Sprintf("%.3g", v)
}

// Table2Measured mirrors Table1Measured for the Model 2.2 algorithms.
type Table2Measured struct {
	Algorithm string
	NetWords  int64
	NVMReads  int64
	NVMWrites int64
	W1Bound   float64
	W2Bound   float64
}

// Table2 runs 2.5DMML3ooL2 and SUMMAL3ooL2 and reports measured words
// against both Theorem 4 bounds.
func (s *Session) Table2(quick bool) []Table2Measured {
	s.mark("table2")
	n := 64
	if !quick {
		n = 128
	}
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)

	cfg25 := pmm.Config{Q: 4, C: 4, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8, UseL3: true,
		Observe: s.distObserve("table2 2.5DMML3ooL2")}
	_, m25, err := pmm.MM25D(cfg25, a, b)
	if err != nil {
		panic(err)
	}
	cfgS := pmm.Config{Q: 4, C: 1, M1: 48, B1: 4, M2: 3 * 8 * 8, B2: 8, UseL3: true,
		Observe: s.distObserve("table2 SUMMAL3ooL2")}
	_, mS, err := pmm.SUMMAooL2(cfgS, 8, a, b)
	if err != nil {
		panic(err)
	}
	var r32a, r32b int64
	for r := 0; r < m25.P(); r++ {
		if v := m25.Proc(r).H.Interface(1).LoadWords; v > r32a {
			r32a = v
		}
	}
	for r := 0; r < mS.P(); r++ {
		if v := mS.Proc(r).H.Interface(1).LoadWords; v > r32b {
			r32b = v
		}
	}
	rows := []Table2Measured{
		{
			Algorithm: "2.5DMML3ooL2",
			NetWords:  m25.MaxNet().WordsSent,
			NVMReads:  r32a,
			NVMWrites: m25.MaxWritesTo(2),
			W1Bound:   lowerbounds.W1(n, cfg25.P()),
			W2Bound:   lowerbounds.W2(n, cfg25.P(), float64(cfg25.C)),
		},
		{
			Algorithm: "SUMMAL3ooL2",
			NetWords:  mS.MaxNet().WordsSent,
			NVMReads:  r32b,
			NVMWrites: mS.MaxWritesTo(2),
			W1Bound:   lowerbounds.W1(n, cfgS.P()),
			W2Bound:   lowerbounds.W2(n, cfgS.P(), 1),
		},
	}
	// Theorem 4 says no algorithm attains both W1 and W2, but both remain
	// valid lower bounds: per-processor NVM writes sit at or above W1
	// (SUMMA attains it exactly) and network words at or above W2.
	for _, r := range rows {
		s.conform("w1-nvm-write-floor", "table2/"+r.Algorithm,
			float64(r.NVMWrites), r.W1Bound, 1, false)
		s.conform("w2-network-floor", "table2/"+r.Algorithm,
			float64(r.NetWords), r.W2Bound, 1, false)
	}
	s.distDone("table2 2.5DMML3ooL2", m25)
	s.distDone("table2 SUMMAL3ooL2", mS)
	return rows
}

// FormatTable2 renders the measured Table 2 plus analytic rows and the
// Theorem 4 verdict.
func FormatTable2(rows []Table2Measured, hw costmodel.HW, n, p int, c3 float64) string {
	var b strings.Builder
	b.WriteString("== Table 2 / Theorem 4 (measured, per-processor words)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "algorithm\tnet words\tW2 bound\tNVM writes\tW1 bound\tNVM reads\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%.0f\t%d\t\n",
			r.Algorithm, r.NetWords, r.W2Bound, r.NVMWrites, r.W1Bound, r.NVMReads)
	}
	tw.Flush()
	b.WriteString("Theorem 4: no algorithm may attain both W1 and W2; each attains exactly one above.\n")

	fmt.Fprintf(&b, "\n== Table 2 (analytic, n=%d P=%d c3=%g)\n", n, p, c3)
	tw = tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "movement\tparameter\t2.5DMML3ooL2\tSUMMAL3ooL2\t\n")
	for _, r := range costmodel.Table2(hw, n, p, c3) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n", r.Movement, r.Param, cell(r.Costs[0]), cell(r.Costs[1]))
	}
	tw.Flush()
	fmt.Fprintf(&b, "domBcost eq(2) 2.5DMML3ooL2 = %.3g s, eq(3) SUMMAL3ooL2 = %.3g s\n",
		costmodel.DomBeta25DooL2(hw, n, p, c3), costmodel.DomBetaSUMMAooL2(hw, n, p))
	return b.String()
}

// LURow is one line of the Section 7.2 experiment.
type LURow struct {
	Algorithm string
	N, P      int
	NetWords  int64
	NVMWrites int64
	NVMReads  int64
	PerProc   int64 // n^2/P reference
}

// LU runs LL-LUNP and RL-LUNP and reports the write/network trade-off.
func (s *Session) LU(quick bool) []LURow {
	s.mark("lu")
	n, q, bs := 32, 2, 4
	if !quick {
		n, q = 64, 4
	}
	a := matrix.Random(n, n, 5)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n)+2)
	}
	spd := matrix.RandomSPD(n, 6)
	cfg := plu.Config{Q: q, B: bs, M1: 48, M2: 1 << 16}
	var rows []LURow
	for _, alg := range []string{"LL-LUNP", "RL-LUNP", "chol-LL", "chol-RL"} {
		var run func(plu.Config, *matrix.Dense) (*matrix.Dense, *dist.Machine, error)
		input := a
		switch alg {
		case "LL-LUNP":
			run = plu.LeftLooking
		case "RL-LUNP":
			run = plu.RightLooking
		case "chol-LL":
			run, input = plu.CholeskyLL, spd
		case "chol-RL":
			run, input = plu.CholeskyRL, spd
		}
		cfg.Observe = s.distObserve("lu " + alg)
		_, mm, err := run(cfg, input.Clone())
		if err != nil {
			panic(err)
		}
		var r32 int64
		for r := 0; r < mm.P(); r++ {
			if v := mm.Proc(r).H.Interface(1).LoadWords; v > r32 {
				r32 = v
			}
		}
		row := LURow{
			Algorithm: alg, N: n, P: cfg.P(),
			NetWords:  mm.MaxNet().WordsSent,
			NVMWrites: mm.MaxWritesTo(2),
			NVMReads:  r32,
			PerProc:   int64(n * n / cfg.P()),
		}
		// The per-processor NVM-write floor is the local output share:
		// n^2/P for the LU factors, the lower triangle's share for
		// Cholesky (LL-LUNP attains its floor exactly).
		outShare := float64(n) * float64(n) / float64(cfg.P())
		if strings.HasPrefix(alg, "chol") {
			outShare = float64(n) * float64(n+1) / 2 / float64(cfg.P())
		}
		s.conform("w1-nvm-write-floor", "lu/"+alg,
			float64(row.NVMWrites), outShare, 1, false)
		s.distDone("lu "+alg, mm)
		rows = append(rows, row)
	}
	return rows
}

// FormatLU renders the LU rows plus the analytic cost summaries.
func FormatLU(rows []LURow, hw costmodel.HW) string {
	var b strings.Builder
	b.WriteString("== Section 7.2: parallel LU without pivoting (measured, per-processor)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "algorithm\tn\tP\tnet words\tNVM writes\tn^2/P\tNVM reads\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Algorithm, r.N, r.P, r.NetWords, r.NVMWrites, r.PerProc, r.NVMReads)
	}
	tw.Flush()
	if len(rows) > 0 {
		n, p := 1<<15, 256
		fmt.Fprintf(&b, "analytic domBcost at n=%d P=%d: LL=%.3g s, RL=%.3g s\n",
			n, p, costmodel.DomBetaLLLUNP(hw, n, p), costmodel.DomBetaRLLUNP(hw, n, p))
		fmt.Fprintf(&b, "full alpha-beta model (eqs 23-26): LL=%.3g s, RL=%.3g s (block %.0f)\n",
			costmodel.TimeLLLUNP(hw, n, p), costmodel.TimeRLLUNP(hw, n, p),
			costmodel.LUBlockSize(hw, n, p))
	}
	return b.String()
}

// KrylovRow is one line of the Section 8 experiment.
type KrylovRow struct {
	Dim           int // stencil dimensionality (1 = ring, 2 = torus)
	S             int
	Basis         string
	CGWrites      int64
	StoredWrites  int64
	StreamWrites  int64
	WriteRatio    float64 // CG / streaming
	FlopsOverhead float64 // streaming / stored basis flops
	MaxSolDiff    float64 // ||x_CACG - x_CG||_inf
}

// Krylov measures W12 for CG, stored CA-CG and streaming CA-CG across s, on
// the 1-D ring and the 2-D torus (the paper's (2b+1)^d-point stencils).
func (s *Session) Krylov(quick bool) []KrylovRow {
	s.mark("krylov")
	n := 4096
	iters := 32
	if quick {
		n, iters = 1024, 16
	}

	type op struct {
		dim   int
		op    krylov.Operator
		block int
	}
	k2 := 64
	if quick {
		k2 = 32
	}
	ops := []op{
		{1, krylov.NewRing(n, 1), n / 16},
		{2, krylov.NewTorus(k2, 1), k2 / 4},
	}

	var rows []KrylovRow
	for _, o := range ops {
		nn := o.op.Size()
		bvec := make([]float64, nn)
		for i := range bvec {
			bvec[i] = float64(i%13) - 6
		}
		x0 := make([]float64, nn)
		mat := o.op.Matrix() // one CSR for the CG and all six CA-CG solves
		trCG := krylov.Traffic{Rec: s.profRec()}
		ref := krylov.CG(mat, bvec, x0, iters, 0, &trCG)

		for _, sv := range []int{2, 4, 8} {
			basis, bname := krylov.BasisMonomial, "monomial"
			if sv > 4 {
				basis, bname = krylov.BasisNewton, "newton"
			}
			trStored := krylov.Traffic{Rec: s.profRec()}
			trStream := krylov.Traffic{Rec: s.profRec()}
			stored, err := krylov.CACG(o.op, bvec, x0, iters/sv,
				krylov.CACGConfig{S: sv, Mode: krylov.CACGStored, Basis: basis, Matrix: mat}, &trStored)
			if err != nil {
				panic(err)
			}
			stream, err := krylov.CACG(o.op, bvec, x0, iters/sv,
				krylov.CACGConfig{S: sv, Mode: krylov.CACGStreaming, Basis: basis, Block: o.block, Matrix: mat}, &trStream)
			if err != nil {
				panic(err)
			}
			var maxd float64
			for i := range ref.X {
				if d := math.Abs(ref.X[i] - stream.X[i]); d > maxd {
					maxd = d
				}
			}
			rows = append(rows, KrylovRow{
				Dim:           o.dim,
				S:             sv,
				Basis:         bname,
				CGWrites:      trCG.Writes,
				StoredWrites:  trStored.Writes,
				StreamWrites:  trStream.Writes,
				WriteRatio:    float64(trCG.Writes) / float64(trStream.Writes),
				FlopsOverhead: float64(stream.FlopCount) / float64(stored.FlopCount),
				MaxSolDiff:    maxd,
			})
		}
	}
	return rows
}

// FormatKrylov renders the Section 8 rows.
func FormatKrylov(rows []KrylovRow) string {
	var b strings.Builder
	b.WriteString("== Section 8: CA-CG streaming matrix powers, W12 writes to slow memory\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "d\ts\tbasis\tCG W12\tstored CA-CG\tstreaming CA-CG\tCG/stream\tflop overhead\tmax |dx|\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dD\t%d\t%s\t%d\t%d\t%d\t%.2fx\t%.2fx\t%.1e\t\n",
			r.Dim, r.S, r.Basis, r.CGWrites, r.StoredWrites, r.StreamWrites, r.WriteRatio, r.FlopsOverhead, r.MaxSolDiff)
	}
	tw.Flush()
	return b.String()
}
