// Distributed matrix multiplication: plan the paper's §5.2 decomposition
// (column-wise and row-wise weight splits), and run a small *functional*
// row-split matmul on simulated chips to show the reduced result is
// numerically exact through the full runtime + fabric + chip stack.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/compiler"
	"repro/internal/tsp"
	"repro/tsm"
)

func main() {
	planAndTime()
	functionalRowSplit()
}

// planAndTime decomposes the paper's [800×32576]×[32576×8192] operation.
func planAndTime() {
	fmt.Println("== planning the [800×32576]×[32576×8192] matmul ==")
	for _, rows := range []int{1, 4, 8} {
		split := tsm.MatmulSplit{
			M: 800, N: 8192, K: 32576,
			ColSplits: 8, RowSplits: rows, Dtype: compiler.FP16,
		}
		if err := split.Validate(); err != nil {
			log.Fatal(err)
		}
		m, n, k := split.PerDevice()
		fmt.Printf("%3d TSPs: per-device [%d×%d]×[%d×%d], %d compute cycles\n",
			split.Devices(), m, k, k, n, split.ComputeCycles())
	}
}

// functionalRowSplit computes out = act·W with the 4-row weight matrix W
// row-split across two chips. Each chip computes a partial product with
// its two weight rows; chip 1 streams its partial over a C2C link; chip 0
// reduces. The statically scheduled programs encode every arrival time as
// NOP padding — no handshakes anywhere.
func functionalRowSplit() {
	fmt.Println("\n== functional 2-chip row-split matmul ==")
	sys, err := tsm.NewSystem(tsm.Config{Nodes: 1})
	if err != nil {
		log.Fatal(err)
	}
	topo := sys.Topology()
	// Ports of the 0↔1 cable on each chip.
	link01, ok01 := topo.PortTo(0, 1)
	link10, ok10 := topo.PortTo(1, 0)
	if !ok01 || !ok10 {
		log.Fatal("chips 0 and 1 share no cable")
	}

	// Chip 1: partial over weight rows 2..3, ready at cycle 4
	// (2 × load_weights + 2-row matmul), then send.
	prog1, err := tsm.Assemble(fmt.Sprintf(`
load_weights s1 0
load_weights s2 1
matmul s3 s4 2
.unit c2c
nop 4
send %d s4
`, link10))
	if err != nil {
		log.Fatal(err)
	}
	// Chip 0: its own partial, plus the remote partial arriving at cycle
	// 4 (send) + 650 (hop) = 654; reduce on the VXM after both exist.
	prog0, err := tsm.Assemble(fmt.Sprintf(`
load_weights s1 0
load_weights s2 1
matmul s3 s4 2
.unit c2c
nop 654
recv %d s5
.unit vxm
nop 656
vadd s4 s5 s6
`, link01))
	if err != nil {
		log.Fatal(err)
	}

	progs := make([]*tsm.Program, 2)
	progs[0], progs[1] = prog0, prog1
	cl, err := sys.Cluster(progs)
	if err != nil {
		log.Fatal(err)
	}

	// Data: act = [1 2 3 4], W[r][c] = (r+1)·(c+1).
	act := []float32{1, 2, 3, 4}
	w := func(r, c int) float32 { return float32((r + 1) * (c + 1)) }
	loadRow := func(chip int, streamVals []float32, stream int) {
		cl.Chip(chip).SetStream(stream, tsp.VectorOf(streamVals))
	}
	// Chip 0 holds rows 0,1 and activation lanes 0,1.
	loadRow(0, rowOf(w, 0), 1)
	loadRow(0, rowOf(w, 1), 2)
	loadRow(0, []float32{act[0], act[1]}, 3)
	// Chip 1 holds rows 2,3 and activation lanes 2,3.
	loadRow(1, rowOf(w, 2), 1)
	loadRow(1, rowOf(w, 3), 2)
	loadRow(1, []float32{act[2], act[3]}, 3)

	finish, err := cl.Run()
	if err != nil {
		log.Fatal(err)
	}
	got := cl.Chip(0).StreamFloats(6)
	ok := true
	for c := 0; c < 8; c++ {
		var want float64
		for r := 0; r < 4; r++ {
			want += float64(act[r]) * float64(w(r, c))
		}
		if math.Abs(float64(got[c])-want) > 1e-4 {
			ok = false
			fmt.Printf("lane %d: got %f want %f\n", c, got[c], want)
		}
	}
	fmt.Printf("reduced result lanes 0..7: %v\n", got[:8])
	fmt.Printf("numerically exact: %v; cluster finished at cycle %d\n", ok, finish)
}

func rowOf(w func(int, int) float32, r int) []float32 {
	out := make([]float32, 8)
	for c := range out {
		out[c] = w(r, c)
	}
	return out
}
