// Cold-boot integration test: the whole story in one file. A node powers
// on with drifting oscillators, characterizes its links, aligns its HACs,
// starts its programs simultaneously, compiles a workload with the SSN
// scheduler, lowers the schedule to machine code, executes it on the
// simulated chips, and validates the data — the full §2→§5 pipeline.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hac"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
	"repro/tsm"
)

func TestColdBootToInference(t *testing.T) {
	// 1. Construct the packaging: one 8-TSP node.
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Bring-up: characterize links, align HACs over the spanning
	//    tree, establish a simultaneous program start (§3).
	ar, ps := hac.SystemSync(sys, 1234, 5000, nil)
	if !ar.Converged {
		t.Fatalf("HAC alignment failed: %+v", ar)
	}
	if ps.Spread > 30*sim.Nanosecond {
		t.Fatalf("program start spread %v too wide", ps.Spread)
	}

	// 3. Compile a communication workload (§4): every TSP sends a tensor
	//    to its ring neighbor, with one chained dependency.
	var transfers []core.Transfer
	for i := 0; i < 8; i++ {
		transfers = append(transfers, core.Transfer{
			ID:  core.TransferID(i),
			Src: topo.TSPID(i), Dst: topo.TSPID((i + 1) % 8),
			Vectors: 4,
		})
	}
	transfers = append(transfers, core.Transfer{
		ID: 100, Src: 0, Dst: 4, Vectors: 2,
		After: []core.TransferID{0, 1, 2, 3},
	})
	cs, err := core.ScheduleTransfers(sys, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}

	// 4. Lower to machine code and execute on the cluster; every payload
	//    must arrive intact, no receiver may underflow.
	mark := func(tr core.TransferID, idx int) [320]byte {
		return [320]byte(tsp.VectorOf([]float32{float32(tr), float32(idx), 42}))
	}
	cl, placements, finish, err := runtime.ExecuteSchedule(sys, cs,
		func(pl runtime.VectorPlacement, chip *runtime.ChipHandle) {
			chip.SetStream(pl.SrcStream, mark(pl.Transfer, pl.Index))
		})
	if err != nil {
		t.Fatalf("execution faulted: %v", err)
	}
	for _, pl := range placements {
		got := cl.Chip(pl.DstChip).Stream(pl.DstStream)
		if got != tsp.Vector(mark(pl.Transfer, pl.Index)) {
			t.Fatalf("transfer %d vector %d corrupted", pl.Transfer, pl.Index)
		}
	}

	// 5. Determinism: the compile and the execution replay bit-exactly.
	cs2, err := core.ScheduleTransfers(sys, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Makespan != cs.Makespan {
		t.Fatal("recompiled makespan differs")
	}
	_, _, finish2, err := runtime.ExecuteSchedule(sys, cs2,
		func(pl runtime.VectorPlacement, chip *runtime.ChipHandle) {
			chip.SetStream(pl.SrcStream, mark(pl.Transfer, pl.Index))
		})
	if err != nil {
		t.Fatal(err)
	}
	if finish2 != finish {
		t.Fatalf("replayed execution finished at %d, first run at %d", finish2, finish)
	}
}

// TestPublicAPIEndToEnd drives the same story through the tsm facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys, err := tsm.NewSystem(tsm.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A compute graph spanning both nodes.
	g := tsm.NewGraph()
	in := g.AddInput("x", 640)
	_, t1 := g.AddOp("stage0", 0, 1000, []tsm.TensorID{in}, 640)
	_, t2 := g.AddOp("stage1", 8, 1000, []tsm.TensorID{t1}, 640) // other node
	g.AddOp("stage2", 1, 500, []tsm.TensorID{t2}, -1)
	os, err := sys.CompileGraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Comms.Verify(); err != nil {
		t.Fatal(err)
	}
	if os.Makespan <= 2500 {
		t.Fatalf("makespan %d should include cross-node transfers", os.Makespan)
	}
	// Collective across the 16 TSPs.
	r, err := sys.AllReduce(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Participants != 16 || r.Cycles <= 0 {
		t.Fatalf("all-reduce result %+v", r)
	}
	// Functional all-reduce through the facade.
	inputs := make([][]float32, 8)
	for i := range inputs {
		inputs[i] = []float32{float32(i)}
	}
	out, _, err := tsm.FunctionalAllReduce(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if out[5][0] != 28 { // 0+1+...+7
		t.Fatalf("functional sum = %f, want 28", out[5][0])
	}
}
