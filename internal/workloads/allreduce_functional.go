package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/route"
	"repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Functional 8-way All-Reduce: generate real per-chip programs (sends,
// statically timed receives, VXM accumulation), execute them on the
// simulated cluster, and return every chip's result. This is §5.3 made
// concrete: no mutex, no flag, no fence — the accumulating VADD is simply
// *scheduled* after the contributing vector's statically known arrival.
//
// The generated algorithm is direct exchange (each chip broadcasts its
// vector on its 7 dedicated links and accumulates the 7 it receives) —
// bandwidth-suboptimal for large tensors but one vector here, and
// functionally identical to the reduce-scatter schedule the performance
// models use.

// FunctionalAllReduce runs the exchange for one vector per chip. inputs[i]
// is chip i's contribution (up to 80 float32 lanes). It returns each
// chip's final vector and the cluster finish cycle.
func FunctionalAllReduce(inputs [][]float32) ([][]float32, int64, error) {
	const n = topo.TSPsPerNode
	if len(inputs) != n {
		return nil, 0, fmt.Errorf("workloads: need %d inputs, got %d", n, len(inputs))
	}
	for i, in := range inputs {
		if len(in) > tsp.FloatLanes {
			return nil, 0, fmt.Errorf("workloads: input %d has %d lanes, a vector holds %d", i, len(in), tsp.FloatLanes)
		}
	}
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return nil, 0, err
	}
	progs, err := allReducePrograms(sys)
	if err != nil {
		return nil, 0, err
	}
	cl, err := runtime.New(sys, progs)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		cl.Chip(i).SetStream(1, tsp.VectorOf(inputs[i]))
	}
	finish, err := cl.Run()
	if err != nil {
		return nil, 0, err
	}
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		f := cl.Chip(i).StreamFloats(20)
		out[i] = append([]float32(nil), f[:]...)
	}
	return out, finish, nil
}

// allReducePrograms builds the direct-exchange programs for the 8 chips
// of a one-node system.
func allReducePrograms(sys *topo.System) ([]*isa.Program, error) {
	const n = topo.TSPsPerNode
	// Static schedule: chip i sends to its peers back to back from cycle
	// 0, so every vector lands by 7+HopCycles; receives issue from
	// recvStart, and accumulation starts one cycle after the last receive
	// retires.
	const recvStart = route.HopCycles + 10
	progs := make([]*isa.Program, n)
	for i := 0; i < n; i++ {
		var b isa.Builder
		ports := make([]int, 0, n-1) // chip i's port to each peer, in peer order
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			port, ok := sys.PortTo(topo.TSPID(i), topo.TSPID(j))
			if !ok {
				return nil, fmt.Errorf("workloads: no link %d→%d", i, j)
			}
			ports = append(ports, port)
			b.After(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(port), B: 1})
		}
		// Drain the 7 inbound links into s10..s16: the vector from a peer
		// arrives on the port that faces it.
		var done int64
		for rx, port := range ports {
			done = b.After(isa.C2C, recvStart, isa.Instruction{Op: isa.Recv, A: uint16(port), B: uint16(10 + rx)})
		}
		// Accumulate: s20 = s1 + s10 + … + s16.
		b.After(isa.VXM, done+1, isa.Instruction{Op: isa.VAdd, A: 1, B: 10, C: 20})
		for k := 1; k < n-1; k++ {
			b.After(isa.VXM, 0, isa.Instruction{Op: isa.VAdd, A: 20, B: uint16(10 + k), C: 20})
		}
		progs[i] = b.Program()
	}
	return progs, nil
}
