package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// runOutcome is everything one executor run exposes to the determinism
// contract: the cluster (state, checkpoint blobs), the finish/error pair,
// and the recorder's dumps (empty when the run was unrecorded).
type runOutcome struct {
	cl                     *Cluster
	finish                 int64
	err                    error
	trace, metrics, series string
}

// observe builds and runs one cluster, under a fresh recorder sampling
// every seriesEvery cycles when record is set, and captures its outcome.
func observe(t *testing.T, record bool, seriesEvery int64, build func() *Cluster, run func(*Cluster) (int64, error)) runOutcome {
	t.Helper()
	var o runOutcome
	exec := func() {
		o.cl = build()
		o.finish, o.err = run(o.cl)
	}
	if !record {
		exec()
		return o
	}
	o.trace, o.metrics, o.series = withSeriesRecorder(t, seriesEvery, exec)
	return o
}

// underflowPoisonCluster is the mixed-fault case: in one window, chip 1
// executes a lying Recv at cycle 100 (chip 0 sends at 0, the vector lands
// at 650) and chip 2 reads a double-bit-poisoned SRAM vector at cycle 200.
// The sequential executor stops at the underflow; a window executor that
// parks chip 1's Recv as a speculative stall must still rank it ahead of
// chip 2's later poison fault.
func underflowPoisonCluster(t *testing.T, workers int) *Cluster {
	return mixedFaultCluster(t, workers, 1, 2)
}

// poisonUnderflowCluster swaps the chips: chip 1 reads the poison at cycle
// 200 and chip 2 does the lying Recv at 100. The sequential executor
// batches chip 1 first, so it meets the later fault first and must keep
// stepping chip 2 up to it to report the earlier underflow.
func poisonUnderflowCluster(t *testing.T, workers int) *Cluster {
	return mixedFaultCluster(t, workers, 2, 1)
}

// mixedFaultCluster builds the one-node mixed-fault case: chip 0 sends at
// cycle 0, chip recv does a Recv at 100 before the vector lands, and chip
// read reads a double-bit-poisoned SRAM vector at 200.
func mixedFaultCluster(t *testing.T, workers, recv, read int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := localLinkIndex(sys, 0, topo.TSPID(recv))
	if err != nil {
		t.Fatal(err)
	}
	in, err := localLinkIndex(sys, topo.TSPID(recv), 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [3]progBuilder
	b[0].at(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(out), B: 0})
	b[recv].at(isa.C2C, 100, isa.Instruction{Op: isa.Recv, A: uint16(in), B: 0})
	b[read].at(isa.MEM, 200, isa.Instruction{Op: isa.Read, Imm: 1})
	cl, err := New(sys, []*isa.Program{&b[0].p, &b[1].p, &b[2].p})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	poisoned := mem.Addr{}
	cl.Chip(read).Mem.Write(poisoned, make([]byte, mem.VectorBytes))
	cl.Chip(read).Mem.FlipBit(poisoned, 3)
	cl.Chip(read).Mem.FlipBit(poisoned, 4)
	return cl
}

// TestDeterminismMatrix is the executor-equivalence contract in one
// table: {ring, pipeline} workloads under every observation mode, plus
// the mixed underflow+poison fault, each run by the sequential executor
// and by the window executor at speculation depths 0/1/4 on 1/2/4
// workers.
//
// A clean run must match the sequential reference in finish cycle, chip
// state, SRAM and FEC tallies, and — when recorded without a cadence — in
// its raw trace and metrics dumps. Cadence modes observe only window
// barriers, so their dumps, series and checkpoint blobs must match the
// first window run (depth 0, one worker); the 650-cycle checkpoint
// cadence also clamps every window to the hop grid, the old fixed
// partition. A faulted run must report the sequential error and finish
// cycle, and its abandoned state and dumps must match across worker
// counts at each depth.
func TestDeterminismMatrix(t *testing.T) {
	type workload struct {
		name  string
		build func(t *testing.T, workers int) *Cluster
		addrs []mem.Addr
	}
	type mode struct {
		name        string
		record      bool
		seriesEvery int64
		// barrierOnly: the mode observes window barriers, which the
		// sequential executor never cuts, so dumps are compared against
		// the first window run.
		barrierOnly bool
		arm         func(t *testing.T, cl *Cluster)
	}
	ring := workload{"ring", func(t *testing.T, w int) *Cluster { return buildRing(t, 2, 7, 1, w) }, []mem.Addr{{}}}
	pipeline := workload{"pipeline", func(t *testing.T, w int) *Cluster { return buildPipeline(t, 1, 3, 50, w) },
		[]mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}}
	modes := []mode{
		{name: "clean", record: true},
		// Unrecorded on one worker is the only configuration that takes
		// the direct-delivery path.
		{name: "unrecorded"},
		{name: "faults", record: true, arm: func(t *testing.T, cl *Cluster) {
			plan := &faultplan.Plan{Events: []faultplan.Event{{Cycle: 1955, Kind: faultplan.StuckChip, Chip: 3}}}
			compiled, err := plan.Compile(cl.sys)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetFaultPlan(compiled, 0, 1)
		}},
		{name: "checkpoint", record: true, barrierOnly: true, arm: func(t *testing.T, cl *Cluster) { cl.SetCheckpointCadence(650) }},
		{name: "series", record: true, seriesEvery: 1300, barrierOnly: true},
	}
	type row struct {
		w workload
		m mode
	}
	var rows []row
	for _, w := range []workload{ring, pipeline} {
		for _, m := range modes {
			rows = append(rows, row{w, m})
		}
	}
	rows = append(rows,
		row{workload{"underflow-poison", underflowPoisonCluster, []mem.Addr{{}}}, modes[0]},
		row{workload{"poison-underflow", poisonUnderflowCluster, []mem.Addr{{}}}, modes[0]})

	for _, r := range rows {
		t.Run(r.w.name+"/"+r.m.name, func(t *testing.T) {
			build := func(workers int, depth int64) func() *Cluster {
				return func() *Cluster {
					cl := r.w.build(t, workers)
					cl.SetSpecDepth(depth)
					if r.m.arm != nil {
						r.m.arm(t, cl)
					}
					return cl
				}
			}
			seq := observe(t, r.m.record, r.m.seriesEvery, build(1, 0), (*Cluster).RunSequential)
			faulted := seq.err != nil
			if f, ok := seq.err.(*tsp.Fault); (r.w.name == "underflow-poison" || r.w.name == "poison-underflow") && (!ok || f.Kind != tsp.ErrUnderflow || f.Cycle != 100) {
				t.Fatalf("sequential: want the underflow at cycle 100, got %v", seq.err)
			}
			var first, depthRef runOutcome
			for _, depth := range []int64{0, 1, 4} {
				for i, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("depth%d/w%d", depth, workers)
					got := observe(t, r.m.record, r.m.seriesEvery, build(workers, depth),
						func(cl *Cluster) (int64, error) { return cl.RunParallel(workers) })
					if first.cl == nil {
						first = got
					}
					if i == 0 {
						depthRef = got
					}
					if faulted {
						// Error and finish against sequential, abandoned
						// state against w1 at this depth.
						assertSameResult(t, name, depthRef.cl, got.cl, seq.finish, got.finish, seq.err, got.err, r.w.addrs)
						if got.trace != depthRef.trace || got.metrics != depthRef.metrics {
							t.Errorf("%s: abandoned-run dumps differ from w1 at this depth", name)
						}
						continue
					}
					assertSameResult(t, name, seq.cl, got.cl, seq.finish, got.finish, seq.err, got.err, r.w.addrs)
					want := seq
					if r.m.barrierOnly {
						want = first
					}
					if got.trace != want.trace || got.metrics != want.metrics {
						t.Errorf("%s: dumps differ (trace %v, metrics %v)", name, got.trace != want.trace, got.metrics != want.metrics)
					}
					if got.series != first.series {
						t.Errorf("%s: series export differs from depth0/w1", name)
					}
					gb, fb := got.cl.Checkpoints(), first.cl.Checkpoints()
					if len(gb) != len(fb) {
						t.Fatalf("%s: %d checkpoints, depth0/w1 took %d", name, len(gb), len(fb))
					}
					for k := range fb {
						if !bytes.Equal(gb[k].Blob, fb[k].Blob) {
							t.Errorf("%s: checkpoint %d blob differs from depth0/w1", name, k)
						}
					}
				}
			}
		})
	}
}
