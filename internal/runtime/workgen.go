package runtime

// Synthetic multi-chip workload generators for benchmarks and executor
// equivalence tests. Both generators emit statically scheduled programs in
// the paper's style — every Send, Recv, and compute op at a fixed cycle,
// no synchronization primitives — sized by chip count, so the same
// workload scales from one node (8 chips) to a rack slice (64+).

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/route"
	"repro/internal/topo"
)

// Stream-register conventions shared by the generators and their callers.
const (
	// RingCur holds the vector currently circulating the ring (the
	// caller preloads each chip's contribution here).
	RingCur = 0
	// RingAcc holds the running elementwise sum (preload with the chip's
	// own contribution; after r rounds it is the sum of r+1 chips).
	RingAcc = 1
	// PipeData is the activation flowing down the pipeline.
	PipeData = 0
	// PipeBias is each stage's resident bias vector (caller preloads).
	PipeBias = 2
	// scratch is the MXM's throwaway output stream in both generators.
	scratch = 40
)

// RingAllReducePrograms builds a node-local ring all-reduce over every
// node of the system: each chip passes the circulating vector to its
// intra-node neighbor each round and accumulates what it receives, with
// matmulsPerRound 80-row MXM products per round as background compute
// load. After 7 rounds (one full lap of the 8-chip ring) every chip's
// RingAcc stream holds the elementwise sum of its node's contributions,
// and each program ends by committing RingAcc to SRAM address {0,0,0,0}.
//
// The caller preloads Streams[RingCur] = Streams[RingAcc] = the chip's
// contribution on every chip before Run. Chips of one role share one
// *isa.Program, and callers must not modify it.
func RingAllReducePrograms(sys *topo.System, rounds, matmulsPerRound int) ([]*isa.Program, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("workgen: rounds %d < 1", rounds)
	}
	if matmulsPerRound < 0 {
		matmulsPerRound = 0
	}
	// Per-round period: send at +0, the hop lands at +650, accumulate at
	// +652, background matmuls from +656; 720 leaves slack, and each
	// 80-row matmul occupies the MXM for 80 cycles.
	period := int64(720 + 80*matmulsPerRound)
	// A chip's program depends only on its (next, prev) local link
	// indices, so every chip of one role gets the same program.
	byRole := map[[2]int]*isa.Program{}
	progs := make([]*isa.Program, sys.NumTSPs())
	for c := 0; c < sys.NumTSPs(); c++ {
		node, local := c/topo.TSPsPerNode, c%topo.TSPsPerNode
		next := topo.TSPID(node*topo.TSPsPerNode + (local+1)%topo.TSPsPerNode)
		prev := topo.TSPID(node*topo.TSPsPerNode + (local+topo.TSPsPerNode-1)%topo.TSPsPerNode)
		nextIdx, okNext := sys.PortTo(topo.TSPID(c), next)
		prevIdx, okPrev := sys.PortTo(topo.TSPID(c), prev)
		if !okNext || !okPrev {
			return nil, fmt.Errorf("workgen: chip %d is not wired to ring neighbors %d and %d", c, next, prev)
		}
		role := [2]int{nextIdx, prevIdx}
		if p, ok := byRole[role]; ok {
			progs[c] = p
			continue
		}
		var b isa.Builder
		for r := 0; r < rounds; r++ {
			start := int64(r) * period
			b.At(isa.C2C, start, isa.Instruction{Op: isa.Send, A: uint16(nextIdx), B: RingCur})
			b.At(isa.C2C, start+route.HopCycles, isa.Instruction{Op: isa.Recv, A: uint16(prevIdx), B: RingCur})
			b.At(isa.VXM, start+652, isa.Instruction{Op: isa.VAdd, A: RingAcc, B: RingCur, C: RingAcc})
			for m := 0; m < matmulsPerRound; m++ {
				b.At(isa.MXM, start+656+int64(m)*80, isa.Instruction{Op: isa.MatMul, A: RingCur, B: scratch, Imm: 80})
			}
		}
		b.At(isa.MEM, int64(rounds)*period, isa.Instruction{Op: isa.Write, A: 0, B: 0, C: 0, Imm: RingAcc})
		p := b.Program()
		byRole[role] = p
		progs[c] = p
	}
	return progs, nil
}

// PipelinePrograms builds an 8-stage model-parallel pipeline per node
// (stage s = local chip s): stage 0 reads one input vector per wave from
// its SRAM (word w), every stage adds its resident PipeBias vector and
// runs matmulsPerStage 80-row MXM products, interior stages forward the
// activation down the chain, and the last stage commits each wave's
// result to SRAM word w. Waves are software-pipelined one window apart,
// so the cluster ramps from one busy chip to all eight and back.
//
// The caller preloads stage 0's SRAM words 0..waves-1 with the inputs and
// every chip's Streams[PipeBias] with that stage's bias before Run. Chips
// of one role share one *isa.Program, and callers must not modify it.
func PipelinePrograms(sys *topo.System, waves, matmulsPerStage int) ([]*isa.Program, error) {
	if waves < 1 {
		return nil, fmt.Errorf("workgen: waves %d < 1", waves)
	}
	if matmulsPerStage < 0 {
		matmulsPerStage = 0
	}
	// Window: ingest at +0 (read retires at +5, recv at +1), bias add at
	// +6, matmuls from +10, forward at +20. The hop from a +20 send lands
	// at +670 ≤ the next window's start, so 720 is a safe period whenever
	// the matmuls fit.
	period := int64(720)
	if fit := int64(10+80*matmulsPerStage) + 40; fit > period {
		period = fit
	}
	// A chip's program depends only on its stage and its (next, prev)
	// local link indices, so every chip of one role gets the same program.
	byRole := map[[3]int]*isa.Program{}
	progs := make([]*isa.Program, sys.NumTSPs())
	for c := 0; c < sys.NumTSPs(); c++ {
		stage := c % topo.TSPsPerNode
		var nextIdx, prevIdx int
		okNext, okPrev := true, true
		if stage > 0 {
			prevIdx, okPrev = sys.PortTo(topo.TSPID(c), topo.TSPID(c-1))
		}
		if stage < topo.TSPsPerNode-1 {
			nextIdx, okNext = sys.PortTo(topo.TSPID(c), topo.TSPID(c+1))
		}
		if !okNext || !okPrev {
			return nil, fmt.Errorf("workgen: chip %d is not wired to its pipeline neighbors", c)
		}
		role := [3]int{stage, nextIdx, prevIdx}
		if p, ok := byRole[role]; ok {
			progs[c] = p
			continue
		}
		var b isa.Builder
		for w := 0; w < waves; w++ {
			win := int64(w+stage) * period
			if stage == 0 {
				b.At(isa.MEM, win, isa.Instruction{Op: isa.Read, A: 0, B: 0, C: uint16(w), Imm: PipeData})
			} else {
				b.At(isa.C2C, win, isa.Instruction{Op: isa.Recv, A: uint16(prevIdx), B: PipeData})
			}
			b.At(isa.VXM, win+6, isa.Instruction{Op: isa.VAdd, A: PipeData, B: PipeBias, C: PipeData})
			for m := 0; m < matmulsPerStage; m++ {
				b.At(isa.MXM, win+10+int64(m)*80, isa.Instruction{Op: isa.MatMul, A: PipeData, B: scratch, Imm: 80})
			}
			if stage < topo.TSPsPerNode-1 {
				b.At(isa.C2C, win+20, isa.Instruction{Op: isa.Send, A: uint16(nextIdx), B: PipeData})
			} else {
				b.At(isa.MEM, win+20, isa.Instruction{Op: isa.Write, A: 0, B: 0, C: uint16(w), Imm: PipeData})
			}
		}
		p := b.Program()
		byRole[role] = p
		progs[c] = p
	}
	return progs, nil
}
