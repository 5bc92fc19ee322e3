package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
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
	exec := func(rec *obs.Recorder) {
		o.cl = build()
		o.cl.SetRecorder(rec)
		o.finish, o.err = run(o.cl)
	}
	if !record {
		exec(nil)
		return o
	}
	o.series, _, o.trace, o.metrics = seriesDump(t, seriesEvery, exec)
	return o
}

// underflowPoisonCluster is the mixed-fault case: chip 1 executes a lying
// Recv at cycle 100 (chip 0 sends at 0, the vector lands at 650) and chip
// 2 reads a double-bit-poisoned SRAM vector at cycle 200. The sequential
// executor must stop at chip 1's underflow, ahead of chip 2's later
// poison fault.
func underflowPoisonCluster(t *testing.T, workers int) *Cluster {
	return faultCluster(t, workers, nodeFaults{1, 2, 100, 200})
}

// poisonUnderflowCluster swaps the chips: chip 1 reads the poison at cycle
// 200 and chip 2 does the lying Recv at 100. The sequential executor
// batches chip 1 first, so it meets the later fault first and must keep
// stepping chip 2 up to it to report the earlier underflow.
func poisonUnderflowCluster(t *testing.T, workers int) *Cluster {
	return faultCluster(t, workers, nodeFaults{2, 1, 100, 200})
}

// nodeFaults is one node's mixed-fault case: the node's chip 0 sends to
// local chip recv at cycle 0, recv does a Recv at recvAt before the vector
// lands (650), and local chip read reads a double-bit-poisoned SRAM vector
// at readAt.
type nodeFaults struct {
	recv, read     int
	recvAt, readAt int64
}

// faultCluster builds one node per nodeFaults entry, each with its own
// mixed faults and no traffic between nodes.
func faultCluster(t *testing.T, workers int, nodes ...nodeFaults) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: len(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]isa.Builder, sys.NumTSPs())
	for n, f := range nodes {
		src, recv := topo.TSPID(n*topo.TSPsPerNode), topo.TSPID(n*topo.TSPsPerNode+f.recv)
		out, in := linkIndex(t, sys, src, recv), linkIndex(t, sys, recv, src)
		b[src].At(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(out), B: 0})
		b[recv].At(isa.C2C, f.recvAt, isa.Instruction{Op: isa.Recv, A: uint16(in), B: 0})
		b[n*topo.TSPsPerNode+f.read].At(isa.MEM, f.readAt, isa.Instruction{Op: isa.Read, Imm: 1})
	}
	progs := make([]*isa.Program, len(b))
	for i := range b {
		progs[i] = b[i].Program()
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	poisoned := mem.Addr{}
	for n, f := range nodes {
		chip := cl.Chip(n*topo.TSPsPerNode + f.read)
		chip.Mem.Write(poisoned, make([]byte, mem.VectorBytes))
		chip.Mem.FlipBit(poisoned, 3)
		chip.Mem.FlipBit(poisoned, 4)
	}
	return cl
}

// crossNodeScheduleCluster lowers an SSN schedule whose transfers chain
// through chip 15 across both nodes of a 2-node system, so its send graph
// is one component.
func crossNodeScheduleCluster(t *testing.T, workers int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.ScheduleTransfers(sys, []core.Transfer{
		{ID: 0, Src: 0, Dst: 15, Vectors: 4},
		{ID: 1, Src: 15, Dst: 3, Vectors: 4, After: []core.TransferID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, placements, err := ProgramsFromSchedule(sys, cs)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	for _, pl := range placements {
		cl.Chip(pl.SrcChip).SetStream(pl.SrcStream, tsp.VectorOf([]float32{float32(pl.Transfer), float32(pl.Index)}))
	}
	return cl
}

// TestDeterminismMatrix is the executor-equivalence contract in one
// table: {ring, pipeline} workloads under every observation mode, plus
// the mixed underflow+poison fault, each run by RunSequential and then
// through Run on 1/2/4 workers. Every mode but "unrecorded" keeps Run on
// the sequential executor, with the mode's reason. The unrecorded mode and
// the "run" rows take the component executor: multi-node ring and
// pipeline, two nodes faulting independently, and a cross-node schedule
// that forms one component.
//
// A run must match the sequential reference in finish cycle, error, chip
// state, SRAM and FEC tallies, and in its raw trace, metrics and series
// dumps and every checkpoint blob. Cadence modes capture at heap
// barriers; the 650-cycle checkpoint cadence also clamps every batch to
// the hop grid. The one exception is a faulted component run: each
// component stops at its own earliest fault, so only its error and finish
// cycle match the sequential run, and its abandoned state and dumps must
// match across worker counts.
func TestDeterminismMatrix(t *testing.T) {
	type workload struct {
		name  string
		build func(t *testing.T, workers int) *Cluster
		addrs []mem.Addr
		// want is the fault a faulted workload must report; comps is how
		// many components Run's component executor must find.
		want  *tsp.Fault
		comps int
	}
	type mode struct {
		name        string
		record      bool
		seriesEvery int64
		// reason is why Run must pick the sequential executor; empty when
		// it must pick the component executor.
		reason string
		arm    func(t *testing.T, cl *Cluster)
	}
	ring := workload{name: "ring", build: func(t *testing.T, w int) *Cluster { return buildRing(t, 2, 7, 1, w) }, addrs: []mem.Addr{{}}, comps: 2}
	pipeAddrs := []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
	pipeline := workload{name: "pipeline", build: func(t *testing.T, w int) *Cluster { return buildPipeline(t, 1, 3, 50, w) }, addrs: pipeAddrs, comps: 1}
	underflow := &tsp.Fault{Kind: tsp.ErrUnderflow, Cycle: 100}
	modes := []mode{
		{name: "clean", record: true, reason: "recorder"},
		{name: "unrecorded"},
		{name: "faults", record: true, reason: "recorder", arm: func(t *testing.T, cl *Cluster) {
			plan := &faultplan.Plan{Events: []faultplan.Event{{Cycle: 1955, Kind: faultplan.StuckChip, Chip: 3}}}
			compiled, err := plan.Compile(cl.sys)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetFaultPlan(compiled, 0, 1)
		}},
		{name: "checkpoint", record: true, reason: "checkpoint cadence", arm: func(t *testing.T, cl *Cluster) { cl.SetCheckpointCadence(650) }},
		{name: "series", record: true, seriesEvery: 1300, reason: "series cadence"},
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
		row{workload{name: "underflow-poison", build: underflowPoisonCluster, addrs: []mem.Addr{{}}, want: underflow}, modes[0]},
		row{workload{name: "poison-underflow", build: poisonUnderflowCluster, addrs: []mem.Addr{{}}, want: underflow}, modes[0]})
	run := mode{name: "run"}
	for _, w := range []workload{
		{name: "ring4", build: func(t *testing.T, w int) *Cluster { return buildRing(t, 4, 7, 1, w) }, addrs: []mem.Addr{{}}, comps: 4},
		{name: "pipeline2", build: func(t *testing.T, w int) *Cluster { return buildPipeline(t, 2, 3, 50, w) }, addrs: pipeAddrs, comps: 2},
		// Node 1's poison at cycle 50 precedes node 0's underflow at 100.
		{name: "two-node-faults", build: func(t *testing.T, w int) *Cluster {
			return faultCluster(t, w, nodeFaults{1, 2, 100, 200}, nodeFaults{1, 2, 100, 50})
		}, addrs: []mem.Addr{{}}, want: &tsp.Fault{Kind: tsp.ErrMemPoison, Cycle: 50}, comps: 4},
		// Node 1's poison ties node 0's underflow at cycle 100; chip 1
		// outranks chip 10.
		{name: "two-node-fault-tie", build: func(t *testing.T, w int) *Cluster {
			return faultCluster(t, w, nodeFaults{1, 2, 100, 200}, nodeFaults{1, 2, 150, 100})
		}, addrs: []mem.Addr{{}}, want: underflow, comps: 4},
		{name: "cross-node-schedule", build: crossNodeScheduleCluster, comps: 1},
	} {
		rows = append(rows, row{w, run})
	}

	for _, r := range rows {
		t.Run(r.w.name+"/"+r.m.name, func(t *testing.T) {
			build := func(workers int) func() *Cluster {
				return func() *Cluster {
					cl := r.w.build(t, workers)
					if r.m.arm != nil {
						r.m.arm(t, cl)
					}
					return cl
				}
			}
			seq := observe(t, r.m.record, r.m.seriesEvery, build(1), (*Cluster).RunSequential)
			if f, ok := seq.err.(*tsp.Fault); r.w.want != nil && (!ok || f.Kind != r.w.want.Kind || f.Cycle != r.w.want.Cycle) {
				t.Fatalf("sequential: want %v at cycle %d, got %v", r.w.want.Kind, r.w.want.Cycle, seq.err)
			}
			want := Executor{"sequential", r.m.reason, 1}
			if r.m.reason == "" {
				want = Executor{"components", "clean fabric", r.w.comps}
			}
			var first runOutcome
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("run/w%d", workers)
				got := observe(t, r.m.record, r.m.seriesEvery, build(workers), (*Cluster).Run)
				if ex := got.cl.Executor(); ex != want {
					t.Errorf("%s: Run chose %+v, want %+v", name, ex, want)
				}
				if first.cl == nil {
					first = got
				}
				ref := seq
				if seq.err != nil && want.Name == "components" {
					// Error and finish against sequential, abandoned
					// state and dumps against w1.
					ref = first
				}
				assertSameResult(t, name, ref.cl, got.cl, seq.finish, got.finish, seq.err, got.err, r.w.addrs)
				if got.trace != ref.trace || got.metrics != ref.metrics || got.series != ref.series {
					t.Errorf("%s: dumps differ (trace %v, metrics %v, series %v)", name,
						got.trace != ref.trace, got.metrics != ref.metrics, got.series != ref.series)
				}
				gb, rb := got.cl.Checkpoints(), ref.cl.Checkpoints()
				if len(gb) != len(rb) {
					t.Fatalf("%s: %d checkpoints, want %d", name, len(gb), len(rb))
				}
				for k := range rb {
					if !bytes.Equal(gb[k].Blob, rb[k].Blob) {
						t.Errorf("%s: checkpoint %d blob differs", name, k)
					}
				}
			}
		})
	}
}
