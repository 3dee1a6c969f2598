package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"text/tabwriter"

	"writeavoid/internal/cache"
	"writeavoid/internal/cdag"
	"writeavoid/internal/core"
	"writeavoid/internal/extsort"
	"writeavoid/internal/fft"
	"writeavoid/internal/lowerbounds"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
	"writeavoid/internal/nbody"
	"writeavoid/internal/smp"
	"writeavoid/internal/strassen"
)

// Sec4Row is one line of the Section 4 experiment: a kernel run on the
// two-level machine in WA and non-WA loop order.
type Sec4Row struct {
	Kernel      string
	N           int
	B           int
	OutputWords int64
	WAStores    int64
	NonWAStores int64
	WALoads     int64
	NonWALoads  int64
}

// Sec4 measures every Section 4 algorithm at a few sizes, reporting stores
// to slow memory under both loop orders against the output-size lower bound.
func (s *Session) Sec4(quick bool) []Sec4Row {
	s.mark("sec4")
	sizes := []int{32, 64}
	if quick {
		sizes = sizes[:1]
	}
	var rows []Sec4Row
	for _, n := range sizes {
		b := 8
		// Matrix multiplication (Algorithm 1).
		{
			run := func(order core.Order) machine.InterfaceCounters {
				p := core.TwoLevelPlan(int64(3*b*b), b, order)
				s.observe(p.H)
				c := matrix.New(n, n)
				if err := core.MatMul(p, c, matrix.Random(n, n, 1), matrix.Random(n, n, 2)); err != nil {
					panic(err)
				}
				return p.H.Interface(0)
			}
			wa, nw := run(core.OrderWA), run(core.OrderNonWA)
			rows = append(rows, Sec4Row{"matmul", n, b, int64(n * n),
				wa.StoreWords, nw.StoreWords, wa.LoadWords, nw.LoadWords})
		}
		// TRSM (Algorithm 2).
		{
			run := func(order core.Order) machine.InterfaceCounters {
				p := core.TwoLevelPlan(int64(3*b*b), b, order)
				s.observe(p.H)
				t := matrix.RandomUpperTriangular(n, 3)
				x := matrix.Random(n, n, 4)
				if err := core.TRSM(p, t, x); err != nil {
					panic(err)
				}
				return p.H.Interface(0)
			}
			wa, nw := run(core.OrderWA), run(core.OrderNonWA)
			rows = append(rows, Sec4Row{"trsm", n, b, int64(n * n),
				wa.StoreWords, nw.StoreWords, wa.LoadWords, nw.LoadWords})
		}
		// Cholesky (Algorithm 3): left- vs right-looking.
		{
			run := func(order core.Order) machine.InterfaceCounters {
				p := core.TwoLevelPlan(int64(3*b*b), b, order)
				s.observe(p.H)
				a := matrix.RandomSPD(n, 5)
				if err := core.Cholesky(p, a); err != nil {
					panic(err)
				}
				return p.H.Interface(0)
			}
			wa, nw := run(core.OrderWA), run(core.OrderNonWA)
			rows = append(rows, Sec4Row{"cholesky", n, b, int64(n) * int64(n+1) / 2,
				wa.StoreWords, nw.StoreWords, wa.LoadWords, nw.LoadWords})
		}
		// LU without pivoting (the paper's Section 4.3 conjecture).
		{
			run := func(order core.Order) machine.InterfaceCounters {
				p := core.TwoLevelPlan(int64(3*b*b), b, order)
				s.observe(p.H)
				a := matrix.Random(n, n, 7)
				for d := 0; d < n; d++ {
					a.Set(d, d, a.At(d, d)+float64(n)+2)
				}
				if err := core.LU(p, a); err != nil {
					panic(err)
				}
				return p.H.Interface(0)
			}
			wa, nw := run(core.OrderWA), run(core.OrderNonWA)
			rows = append(rows, Sec4Row{"lu", n, b, int64(n * n),
				wa.StoreWords, nw.StoreWords, wa.LoadWords, nw.LoadWords})
		}
		// QR by blocked MGS (conjecture extended; panel-resident).
		{
			run := func(order core.Order) machine.InterfaceCounters {
				need := int64(n*b + 2*b*b)
				if order == core.OrderNonWA {
					need = int64(2*n*b + 2*b*b)
				}
				h := s.observe(machine.TwoLevel(need))
				a := matrix.Random(n, n, 8)
				r := matrix.New(n, n)
				if err := core.QR(h, b, order, a, r); err != nil {
					panic(err)
				}
				return h.Interface(0)
			}
			wa, nw := run(core.OrderWA), run(core.OrderNonWA)
			tBlocks := int64(n / b)
			out := int64(n*n) + tBlocks*(tBlocks+1)/2*int64(b*b)
			rows = append(rows, Sec4Row{"qr", n, b, out,
				wa.StoreWords, nw.StoreWords, wa.LoadWords, nw.LoadWords})
		}
		// Direct (N,2)-body (Algorithm 4): WA vs force-symmetry.
		{
			sys := nbody.RandomSystem(n, 6)
			hWA := s.observe(machine.TwoLevel(int64(3 * b)))
			if _, err := nbody.Forces2WA(hWA, []int{b}, sys); err != nil {
				panic(err)
			}
			hSym := s.observe(machine.TwoLevel(int64(4 * b)))
			if _, err := nbody.Forces2Symmetric(hSym, b, sys); err != nil {
				panic(err)
			}
			rows = append(rows, Sec4Row{"nbody2", n, b, int64(n),
				hWA.Interface(0).StoreWords, hSym.Interface(0).StoreWords,
				hWA.Interface(0).LoadWords, hSym.Interface(0).LoadWords})
		}
	}
	return rows
}

// FormatSec4 renders the Section 4 rows.
func FormatSec4(rows []Sec4Row) string {
	var b strings.Builder
	b.WriteString("== Section 4: write-avoiding kernels, stores to slow memory (words)\n")
	b.WriteString("   (nonWA column: k-outermost / right-looking / force-symmetric variant)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "kernel\tn\tblock\toutput\tWA stores\tnonWA stores\tWA loads\tnonWA loads\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Kernel, r.N, r.B, r.OutputWords, r.WAStores, r.NonWAStores, r.WALoads, r.NonWALoads)
	}
	tw.Flush()
	return b.String()
}

// Sec3Row reports a negative-result measurement: stores stay a constant
// fraction of traffic for every fast-memory size.
type Sec3Row struct {
	Algorithm  string
	N          int
	M          int64
	Stores     int64
	Traffic    int64
	Fraction   float64
	Thm2Bound  int64
	CDAGDegree int
}

// Sec3 measures the FFT and Strassen store fractions (Corollaries 2 and 3)
// together with their CDAG degrees and Theorem 2 bounds.
func (s *Session) Sec3(quick bool) []Sec3Row {
	s.mark("sec3")
	var rows []Sec3Row

	nFFT := 4096
	if quick {
		nFFT = 1024
	}
	dFFT := fft.BuildCDAG(256).MaxOutDegree(nil)
	x := make([]complex128, nFFT)
	for i := range x {
		x[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	for _, m := range []int{16, 128, 1024} {
		h := s.observe(machine.TwoLevel(int64(m)))
		fft.External(h, m, x)
		c := h.Interface(0)
		tr := c.LoadWords + c.StoreWords
		rows = append(rows, Sec3Row{
			Algorithm: "fft", N: nFFT, M: int64(m),
			Stores: c.StoreWords, Traffic: tr,
			Fraction:   float64(c.StoreWords) / float64(tr),
			Thm2Bound:  cdag.Theorem2TrafficBound(tr, int64(nFFT), int64(dFFT)),
			CDAGDegree: dFFT,
		})
	}

	nStr := 64
	if !quick {
		nStr = 128
	}
	dStr := strassen.BuildCDAG(4).MaxOutDegreeTagged(strassen.TagDecC)
	a := matrix.Random(nStr, nStr, 1)
	bm := matrix.Random(nStr, nStr, 2)
	for _, m := range []int64{48, 192, 768} {
		h := s.observe(machine.TwoLevel(m))
		if _, err := strassen.Multiply(h, m, a, bm); err != nil {
			panic(err)
		}
		c := h.Interface(0)
		tr := c.LoadWords + c.StoreWords
		rows = append(rows, Sec3Row{
			Algorithm: "strassen", N: nStr, M: m,
			Stores: c.StoreWords, Traffic: tr,
			Fraction:   float64(c.StoreWords) / float64(tr),
			Thm2Bound:  cdag.Theorem2TrafficBound(tr, tr/2, 4),
			CDAGDegree: dStr,
		})
	}
	return rows
}

// FormatSec3 renders the Section 3 rows.
func FormatSec3(rows []Sec3Row) string {
	var b strings.Builder
	b.WriteString("== Section 3: bounded reuse precludes write-avoiding (Corollaries 2-3)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "algorithm\tn\tM\tstores\ttraffic\tstore frac\tThm2 bound\tCDAG d\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t\n",
			r.Algorithm, r.N, r.M, r.Stores, r.Traffic, r.Fraction, r.Thm2Bound, r.CDAGDegree)
	}
	tw.Flush()
	b.WriteString(ScheduleSearchReport(64, 12, 200))
	return b.String()
}

// ScheduleSearchReport searches random valid schedules of an n-point FFT
// butterfly on a machine with m-value fast memory and reports the fewest
// stores found against the Theorem 2 bound — an empirical tightness probe of
// the theorem over the schedule space, not just over our algorithms.
func ScheduleSearchReport(n, m, tries int) string {
	g := fft.BuildCDAG(n)
	rng := rand.New(rand.NewPCG(2026, 7))
	bestStores := int64(1 << 62)
	var bestBound int64
	for i := 0; i < tries; i++ {
		order := cdag.RandomTopoOrder(g, rng)
		st, err := cdag.Schedule(g, order, m, rng)
		if err != nil {
			continue
		}
		if st.Stores < bestStores {
			bestStores = st.Stores
			bestBound = cdag.Theorem2WriteBound(st.Loads, st.InputLoads, 2)
		}
	}
	return fmt.Sprintf(
		"schedule search: %d random schedules of a %d-point butterfly (M=%d): min stores %d >= Theorem 2 bound %d\n",
		tries, n, m, bestStores, bestBound)
}

// Sec5Row compares cache-oblivious and write-avoiding instruction orders on
// shrinking simulated caches: Theorem 3 says the CO order's write-backs stay
// Omega(|S|/sqrt(M)) while the WA order tracks the output size.
type Sec5Row struct {
	CacheBytes  int
	COVictimsM  int64
	WAVictimsM  int64
	OutputLines int64
	COBound     float64 // |S|/(8*sqrt(M)) in lines
}

// Sec5 runs the Theorem 3 experiment: a fixed multiplication through
// fully-associative LRU caches of shrinking size.
func (s *Session) Sec5(quick bool) []Sec5Row {
	s.mark("sec5")
	n := 96
	if quick {
		n = 64
	}
	sizes := []int{64 * 1024, 16 * 1024, 4 * 1024}
	var rows []Sec5Row
	for _, sz := range sizes {
		// Proposition 6.1 block choice: five blocks fit with a line
		// spare — counted in cache LINES, since a b x b block of an
		// n-wide row-major matrix occupies up to b*(b*8/lineB + 2)
		// lines, not b^2*8/lineB.
		lineFootprint := func(b int) int {
			return b * (b*8/figLineBytes + 2) * figLineBytes
		}
		waBlock := 1
		for 5*lineFootprint(waBlock+1)+figLineBytes <= sz {
			waBlock++
		}
		co := core.NewCOMatMulTrace(n, n, n, figL1Block, figLineBytes)
		cCO := cache.NewFALRU(sz, figLineBytes)
		co.Run(cCO)
		cCO.FlushDirty()

		wa := core.NewMatMulTrace(n, n, n, figLineBytes,
			core.TraceLevel{Block: waBlock, ContractionInner: true})
		cWA := cache.NewFALRU(sz, figLineBytes)
		wa.Run(cWA)
		cWA.FlushDirty()

		key := fmt.Sprintf("%dK", sz/1024)
		s.statsCheck("sec5-co-"+key, cCO.Stats())
		s.statsCheck("sec5-wa-"+key, cWA.Stats())

		elems := float64(sz) / 8
		rows = append(rows, Sec5Row{
			CacheBytes:  sz,
			COVictimsM:  cCO.Stats().VictimsM,
			WAVictimsM:  cWA.Stats().VictimsM,
			OutputLines: int64(n * n * 8 / figLineBytes),
			COBound:     float64(n) * float64(n) * float64(n) / (8 * math.Sqrt(elems)) * 8 / figLineBytes,
		})
	}
	return rows
}

// FormatSec5 renders the Section 5 rows.
func FormatSec5(rows []Sec5Row) string {
	var b strings.Builder
	b.WriteString("== Section 5: cache-oblivious cannot be write-avoiding (Theorem 3)\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "cache\tCO victims.M\tWA victims.M\toutput lines\t|S|/(8 sqrtM) lines\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dK\t%d\t%d\t%d\t%.0f\t\n",
			r.CacheBytes/1024, r.COVictimsM, r.WAVictimsM, r.OutputLines, r.COBound)
	}
	tw.Flush()
	return b.String()
}

// SMPReport runs the Section 9 shared-memory scheduler experiment: the same
// blocked-matmul task set through a shared LLC under depth-first vs
// breadth-first worker schedules.
func (s *Session) SMPReport(quick bool) string {
	s.mark("smp")
	n, b, workers := 128, 16, 4
	if quick {
		n = 64
	}
	tasks, _ := smp.MatMulTasks(n, n, n, b, figLineBytes)
	llcBytes := workers*4*b*b*8 + figLineBytes
	outLines := int64(n * n * 8 / figLineBytes)

	var bld strings.Builder
	bld.WriteString("== Section 9 open problem: thread schedules vs write-avoidance (shared LLC)\n")
	tw := tabwriter.NewWriter(&bld, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "schedule\tworkers\tLLC\twrite-backs\toutput lines\tx LB\t\n")
	for _, tc := range []struct {
		name  string
		sched smp.Schedule
	}{
		{"depth-first", smp.DepthFirst(tasks, workers)},
		{"breadth-first", smp.BreadthFirst(tasks, workers)},
	} {
		llc := cache.NewFALRU(llcBytes, figLineBytes)
		res, err := smp.Run(llc, tc.sched, 32)
		if err != nil {
			panic(err)
		}
		s.statsCheck("smp-"+tc.name, res.Stats)
		fmt.Fprintf(tw, "%s\t%d\t%dK\t%d\t%d\t%.1f\t\n",
			tc.name, workers, llcBytes/1024, res.Stats.VictimsM, outLines,
			float64(res.Stats.VictimsM)/float64(outLines))
	}
	tw.Flush()
	return bld.String()
}

// Sec9Report exhibits the paper's Section 9 sorting conjecture: the
// I/O-optimal external mergesort's stores equal its loads for every
// fast-memory size, across a sweep of M.
func (s *Session) Sec9Report(quick bool) string {
	s.mark("sec9")
	n := 1 << 16
	if quick {
		n = 1 << 13
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = float64((i*2654435761)%1000003) - 500000
	}
	var b strings.Builder
	b.WriteString("== Section 9 conjecture exhibit: external mergesort writes = reads for all M\n")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "n\tM\tloads\tstores\tpasses\t\n")
	for _, m := range []int{64, 512, 4096} {
		h := s.observe(machine.TwoLevel(int64(m)))
		if _, err := extsort.Sort(h, m, data); err != nil {
			panic(err)
		}
		c := h.Interface(0)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t\n", n, m, c.LoadWords, c.StoreWords, c.LoadWords/int64(n))
	}
	tw.Flush()
	return b.String()
}

// Sec2Report summarizes Theorem 1 on a measured run.
func (s *Session) Sec2Report() string {
	s.mark("sec2")
	p := core.TwoLevelPlan(3*16*16, 16, core.OrderWA)
	s.observe(p.H)
	c := matrix.New(64, 64)
	if err := core.MatMul(p, c, matrix.Random(64, 64, 1), matrix.Random(64, 64, 2)); err != nil {
		panic(err)
	}
	h := p.H
	var b strings.Builder
	b.WriteString("== Section 2: memory model and Theorem 1 (64x64 WA matmul, M=768)\n")
	b.WriteString(h.Report())
	fmt.Fprintf(&b, "Theorem 1 (writes to fast >= traffic/2): %v\n", h.Theorem1Holds(0))
	fmt.Fprintf(&b, "write lower bound (output) = %d, measured writes to slow = %d\n",
		lowerbounds.WriteBoundSlow(64*64), h.WritesTo(1))
	return b.String()
}
