// Package pmm implements the parallel matrix-multiplication algorithms of
// Section 7 of "Write-Avoiding Algorithms" (Carson et al., 2015) on the dist
// substrate:
//
//   - MM25D with C=1 layer is 2DMML2 (Cannon's algorithm, one data copy);
//   - MM25D with C=c>1 and UseL3=false is 2.5DMML2 (replication held in DRAM);
//   - MM25D with UseL3=true is 2.5DMML3 (Model 2.1) and, when the data does
//     not fit in DRAM, 2.5DMML3ooL2 (Model 2.2) — mechanically identical:
//     every block transfer is staged through DRAM to/from NVM and local
//     multiplies run out of NVM;
//   - SUMMAooL2 is SUMMAL3ooL2: it computes each sqrt(M2/3)-square tile of C
//     entirely in DRAM and writes it to NVM exactly once, attaining the W1
//     write bound at the price of Theta(n^3/(P*sqrt(M2))) network words.
//
// All algorithms move real data and produce the true product, validated
// against the sequential reference; the dist and machine counters then yield
// the per-processor words the paper's Tables 1 and 2 cost out.
package pmm

import (
	"fmt"
	"log/slog"

	"writeavoid/internal/core"
	"writeavoid/internal/dist"
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// Config describes the machine geometry and local blocking.
type Config struct {
	Q int // processor grid edge: Q x Q x C grid, P = Q*Q*C
	C int // replication layers (1 = 2D algorithm)

	M1, M2 int64 // local L1 and L2 (DRAM) sizes in words
	B1, B2 int   // local block sizes for L1 and L2 blocking

	UseL3       bool  // stage replicas and operands through the NVM level
	MaxMsgWords int64 // network message size cap (0 = unlimited)

	// Sockets/Placement partition the P ranks over NUMA sockets (see
	// dist.Config); 0 or 1 sockets is the flat machine with no remote
	// traffic. Totals are placement-invariant; only the local/remote
	// classification of network transfers and their staging moves.
	Sockets   int
	Placement machine.Placement

	// Observe, when non-nil, supplies one extra recorder per processor
	// (attribution, tracing); see dist.Config.Observe.
	Observe dist.Observer

	// BatchEvents overrides each rank hierarchy's event-batch capacity;
	// see dist.Config.BatchEvents.
	BatchEvents int

	// Logger, when non-nil, is handed to the machine for structured Debug
	// records at run boundaries; see dist.Config.Logger.
	Logger *slog.Logger
}

// P returns the processor count.
func (c Config) P() int { return c.Q * c.Q * c.C }

func (c Config) validate(n int) error {
	if c.Q < 1 || c.C < 1 {
		return fmt.Errorf("pmm: bad grid %dx%dx%d", c.Q, c.Q, c.C)
	}
	if c.Q%c.C != 0 {
		return fmt.Errorf("pmm: layers C=%d must divide grid edge Q=%d", c.C, c.Q)
	}
	if n%c.Q != 0 {
		return fmt.Errorf("pmm: n=%d not a multiple of Q=%d", n, c.Q)
	}
	nb := n / c.Q
	top := c.B1
	if c.UseL3 {
		top = c.B2
		if c.B2%c.B1 != 0 {
			return fmt.Errorf("pmm: B1=%d must divide B2=%d", c.B1, c.B2)
		}
	}
	if nb%top != 0 {
		return fmt.Errorf("pmm: local block %d not a multiple of plan block %d", nb, top)
	}
	return nil
}

// machineFor builds the homogeneous machine: L1, L2 (DRAM), L3 (NVM).
func (c Config) machineFor() *dist.Machine {
	return dist.New(dist.Config{
		P: c.P(),
		Levels: []machine.Level{
			{Name: "L1", Size: c.M1},
			{Name: "L2", Size: c.M2},
			{Name: "NVM"},
		},
		MaxMsgWords: c.MaxMsgWords,
		Observe:     c.Observe,
		Sockets:     c.Sockets,
		Placement:   c.Placement,
		BatchEvents: c.BatchEvents,
		Logger:      c.Logger,
	})
}

// rank maps grid coordinates to a processor rank.
func (c Config) rank(row, col, layer int) int { return layer*c.Q*c.Q + row*c.Q + col }

// localPlan builds the per-processor blocking plan: data resident in NVM
// needs both interfaces; data resident in DRAM only the L1 interface.
func (c Config) localPlan(h *machine.Hierarchy) *core.Plan {
	bs := []int{c.B1}
	if c.UseL3 {
		bs = []int{c.B1, c.B2}
	}
	return &core.Plan{H: h, BlockSizes: bs, Order: core.OrderWA}
}

// nvmLevel is the index of the NVM level in the 3-level local hierarchy.
const nvmLevel = 2

// MM25D multiplies C = A*B on the configured machine and returns the
// assembled product together with the machine (for counter inspection).
//
// Steps (Section 7.1): broadcast the layer-0 blocks to all C layers; skew
// each layer to its Cannon offset; run Q/C multiply-shift steps per layer;
// reduce the partial C over layers back to layer 0.
func MM25D(cfg Config, a, b *matrix.Dense) (*matrix.Dense, *dist.Machine, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, nil, fmt.Errorf("pmm: need square n x n operands")
	}
	if err := cfg.validate(n); err != nil {
		return nil, nil, err
	}
	q, c := cfg.Q, cfg.C
	nb := n / q
	s := q / c // Cannon steps per layer
	m := cfg.machineFor()

	// Final layer-0 C blocks, indexed by row*q+col; each written by
	// exactly one processor.
	cOut := make([]*matrix.Dense, q*q)

	m.Run(func(p *dist.Proc) {
		layer := p.Rank / (q * q)
		row := (p.Rank % (q * q)) / q
		col := p.Rank % q
		fiber := make([]int, c) // the (row,col,*) replication group
		for l := 0; l < c; l++ {
			fiber[l] = cfg.rank(row, col, l)
		}
		mark := p.H.Marking()

		// Step 1: layer 0 broadcasts its A and B blocks down the fiber.
		if mark {
			p.H.Begin("bcast")
		}
		var aBlk, bBlk []float64
		if layer == 0 {
			aBlk = flatten(a.Block(row*nb, col*nb, nb, nb))
			bBlk = flatten(b.Block(row*nb, col*nb, nb, nb))
			if cfg.UseL3 {
				// The owner's copy already lives in NVM; reading
				// it up for the sends is charged per child later
				// via the broadcast staging below.
				p.StageUpFromLevel(nvmLevel, 2*int64(nb*nb))
			}
		}
		if c > 1 {
			aBlk = p.Bcast(fiber, fiber[0], aBlk)
			bBlk = p.Bcast(fiber, fiber[0], bBlk)
		}
		if cfg.UseL3 && layer != 0 {
			// Received replicas are written to NVM (the beta23 term
			// of Eq. (5)). Their home is the layer-0 owner's memory,
			// so the landing writes are remote when that owner sits
			// on another socket.
			p.StageDownToLevelFrom(fiber[0], nvmLevel, 2*int64(nb*nb))
		}
		if mark {
			p.H.End()
			p.H.Begin("skew")
		}

		// Step 2: skew to this layer's Cannon offset. Processor
		// (row,col,layer) must hold A(row, row+col+layer*s) and
		// B(row+col+layer*s, col) (mod q).
		off := layer * s
		aTo := cfg.rank(row, mod(col-row-off, q), layer)
		aFrom := cfg.rank(row, mod(row+col+off, q), layer)
		bTo := cfg.rank(mod(row-col-off, q), col, layer)
		bFrom := cfg.rank(mod(row+col+off, q), col, layer)
		aBlk = p.Shift(aTo, aFrom, stageSend(p, cfg, aTo, aBlk))
		bBlk = p.Shift(bTo, bFrom, stageSend(p, cfg, bTo, bBlk))
		stageRecv(p, cfg, aFrom, aBlk)
		stageRecv(p, cfg, bFrom, bBlk)
		if mark {
			p.H.End()
		}

		// Step 3: s multiply-shift steps.
		cLoc := matrix.New(nb, nb)
		plan := cfg.localPlan(p.H)
		for t := 0; t < s; t++ {
			if mark {
				p.H.Begin(stepLabels.Get(t))
			}
			if err := core.MatMul(plan, cLoc, unflatten(aBlk, nb), unflatten(bBlk, nb)); err != nil {
				panic(err)
			}
			if t == s-1 {
				if mark {
					p.H.End()
				}
				break
			}
			aTo, aFrom = cfg.rank(row, mod(col-1, q), layer), cfg.rank(row, mod(col+1, q), layer)
			bTo, bFrom = cfg.rank(mod(row-1, q), col, layer), cfg.rank(mod(row+1, q), col, layer)
			aBlk = p.Shift(aTo, aFrom, stageSend(p, cfg, aTo, aBlk))
			bBlk = p.Shift(bTo, bFrom, stageSend(p, cfg, bTo, bBlk))
			stageRecv(p, cfg, aFrom, aBlk)
			stageRecv(p, cfg, bFrom, bBlk)
			if mark {
				p.H.End()
			}
		}

		// Step 4: reduce partial products over the fiber to layer 0.
		if mark {
			p.H.Begin("reduce")
		}
		// cLoc is contiguous (stride nb) and not written again: Reduce
		// hands it over or sums into a copy.
		cFlat := cLoc.Data
		if cfg.UseL3 {
			p.StageUpFromLevel(nvmLevel, int64(nb*nb))
		}
		if c > 1 {
			cFlat = p.Reduce(fiber, fiber[0], cFlat)
		}
		if layer == 0 {
			if cfg.UseL3 {
				p.StageDownToLevel(nvmLevel, int64(nb*nb))
			}
			cOut[row*q+col] = unflatten(cFlat, nb)
		}
		if mark {
			p.H.End()
		}
	})

	out := matrix.New(n, n)
	for r := 0; r < q; r++ {
		for cc := 0; cc < q; cc++ {
			out.Block(r*nb, cc*nb, nb, nb).CopyFrom(cOut[r*q+cc])
		}
	}
	return out, m, nil
}

// stageSend charges the local cost of pushing a block toward rank `to` when
// operands live in NVM (read NVM -> DRAM, remote when the destination sits on
// another socket), and returns the payload. A self-shift charges the same
// words as before sockets existed and is never remote.
func stageSend(p *dist.Proc, cfg Config, to int, blk []float64) []float64 {
	if cfg.UseL3 {
		p.StageUpFromLevelFor(to, nvmLevel, int64(len(blk)))
	}
	return blk
}

// stageRecv charges the landing cost of a block received from rank `from`
// (DRAM -> NVM, remote when it crossed the inter-socket link).
func stageRecv(p *dist.Proc, cfg Config, from int, blk []float64) {
	if cfg.UseL3 {
		p.StageDownToLevelFrom(from, nvmLevel, int64(len(blk)))
	}
}

// SUMMAooL2 multiplies C = A*B with the write-minimal Model 2.2 algorithm:
// a 2D SUMMA over tiles of edge tile = sqrt(M2/3), where each processor's C
// tile is accumulated entirely in DRAM and written to NVM exactly once.
// cfg.C must be 1 and UseL3 true; tile must divide n/Q.
func SUMMAooL2(cfg Config, tile int, a, b *matrix.Dense) (*matrix.Dense, *dist.Machine, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, nil, fmt.Errorf("pmm: need square n x n operands")
	}
	if cfg.C != 1 || !cfg.UseL3 {
		return nil, nil, fmt.Errorf("pmm: SUMMAooL2 requires C=1 and UseL3")
	}
	if n%cfg.Q != 0 {
		return nil, nil, fmt.Errorf("pmm: n=%d not a multiple of Q=%d", n, cfg.Q)
	}
	q := cfg.Q
	nb := n / q
	if nb%tile != 0 || tile%cfg.B1 != 0 {
		return nil, nil, fmt.Errorf("pmm: tile %d must divide local block %d and be a multiple of B1=%d", tile, nb, cfg.B1)
	}
	if int64(3*tile*tile) > cfg.M2 {
		return nil, nil, fmt.Errorf("pmm: three %d^2 tiles exceed M2=%d", tile, cfg.M2)
	}
	m := cfg.machineFor()
	cOut := make([]*matrix.Dense, q*q)

	m.Run(func(p *dist.Proc) {
		row := p.Rank / q
		col := p.Rank % q
		rowGroup := make([]int, q)
		colGroup := make([]int, q)
		for i := 0; i < q; i++ {
			rowGroup[i] = cfg.rank(row, i, 0)
			colGroup[i] = cfg.rank(i, col, 0)
		}
		cLoc := matrix.New(nb, nb)
		// The local multiply plan blocks only L1: all three tiles are
		// DRAM-resident during accumulation.
		plan := &core.Plan{H: p.H, BlockSizes: []int{cfg.B1}, Order: core.OrderWA}

		mark := p.H.Marking()
		tilesPer := nb / tile
		for ti := 0; ti < tilesPer; ti++ {
			for tj := 0; tj < tilesPer; tj++ {
				if mark {
					p.H.Begin(tileLabels.Get(ti, tj))
				}
				cTile := cLoc.Block(ti*tile, tj*tile, tile, tile)
				p.H.Init(1, int64(tile*tile)) // C tile born in DRAM
				for k := 0; k < n; k += tile {
					// A subtile: rows of this processor row,
					// columns [k, k+tile), owned by the
					// processor column holding global column k.
					aOwner := cfg.rank(row, k/nb, 0)
					var aPay []float64
					if p.Rank == aOwner {
						p.H.Load(1, int64(tile*tile)) // NVM -> DRAM
						aPay = flatten(a.Block(row*nb+ti*tile, k, tile, tile))
					}
					aPay = p.Bcast(rowGroup, aOwner, aPay)

					bOwner := cfg.rank(k/nb, col, 0)
					var bPay []float64
					if p.Rank == bOwner {
						p.H.Load(1, int64(tile*tile))
						bPay = flatten(b.Block(k, col*nb+tj*tile, tile, tile))
					}
					bPay = p.Bcast(colGroup, bOwner, bPay)

					if err := core.MatMul(plan, cTile, unflatten(aPay, tile), unflatten(bPay, tile)); err != nil {
						panic(err)
					}
				}
				p.H.Store(1, int64(tile*tile)) // the single NVM write
				if mark {
					p.H.End()
				}
			}
		}
		cOut[row*q+col] = cLoc
	})

	out := matrix.New(n, n)
	for r := 0; r < q; r++ {
		for cc := 0; cc < q; cc++ {
			out.Block(r*nb, cc*nb, nb, nb).CopyFrom(cOut[r*q+cc])
		}
	}
	return out, m, nil
}

func mod(v, m int) int { return ((v % m) + m) % m }

func flatten(m *matrix.Dense) []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out[i*m.Cols:(i+1)*m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

func unflatten(data []float64, n int) *matrix.Dense {
	return &matrix.Dense{Rows: n, Cols: n, Stride: n, Data: data}
}
