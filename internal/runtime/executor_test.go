package runtime

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// contribution is chip c's deterministic test vector.
func contribution(c int) []float32 {
	return []float32{float32(c + 1), float32(2*c + 1), 0.5 * float32(c), -float32(c % 3)}
}

// buildRing constructs a ring all-reduce cluster over nodes nodes and
// preloads every chip's contribution.
func buildRing(t *testing.T, nodes, rounds, matmuls, workers int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := RingAllReducePrograms(sys, rounds, matmuls)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	for c := 0; c < sys.NumTSPs(); c++ {
		v := tsp.VectorOf(contribution(c))
		cl.Chip(c).SetStream(RingCur, v)
		cl.Chip(c).SetStream(RingAcc, v)
	}
	return cl
}

// buildPipeline constructs a pipelined cluster and preloads stage 0's
// inputs and every stage's bias.
func buildPipeline(t *testing.T, nodes, waves, matmuls, workers int) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := PipelinePrograms(sys, waves, matmuls)
	if err != nil {
		t.Fatal(err)
	}
	return newPipeline(t, sys, progs, waves, workers)
}

// newPipeline builds a cluster from pipeline programs and preloads it as
// buildPipeline does.
func newPipeline(t *testing.T, sys *topo.System, progs []*isa.Program, waves, workers int) *Cluster {
	t.Helper()
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	for c := 0; c < sys.NumTSPs(); c++ {
		stage := c % topo.TSPsPerNode
		bias := tsp.VectorOf([]float32{float32(stage + 1), 0.5, -float32(stage), 2})
		cl.Chip(c).SetStream(PipeBias, bias)
		if stage == 0 {
			for w := 0; w < waves; w++ {
				in := tsp.VectorOf(contribution(c + w))
				cl.Chip(c).Mem.Write(mem.Addr{Offset: w}, in[:])
			}
		}
	}
	return cl
}

// TestRingAllReduceFunctional checks the generator's semantics: after 7
// rounds every chip holds its node's elementwise sum, both in the stream
// file and committed to SRAM, and the finish cycle does not depend on the
// node count (the rings are node-local).
func TestRingAllReduceFunctional(t *testing.T) {
	for _, tc := range []struct {
		nodes, matmuls int
		finish         int64
	}{
		{2, 1, 5605},
		{1, 2, 6165},
		{8, 2, 6165},
	} {
		cl := buildRing(t, tc.nodes, 7, tc.matmuls, 1)
		finish, err := cl.RunSequential()
		if err != nil {
			t.Fatalf("%d nodes: run: %v", tc.nodes, err)
		}
		if finish != tc.finish {
			t.Errorf("%d nodes, %d matmuls: finish %d, want %d", tc.nodes, tc.matmuls, finish, tc.finish)
		}
		for c := 0; c < tc.nodes*topo.TSPsPerNode; c++ {
			node := c / topo.TSPsPerNode
			want := make([]float32, 4)
			for l := 0; l < topo.TSPsPerNode; l++ {
				for i, x := range contribution(node*topo.TSPsPerNode + l) {
					want[i] += x
				}
			}
			got := cl.Chip(c).StreamFloats(RingAcc)
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-4 {
					t.Fatalf("%d nodes: chip %d acc[%d] = %f, want %f", tc.nodes, c, i, got[i], want[i])
				}
			}
			data, ok := cl.Chip(c).Mem.Read(mem.Addr{})
			if !ok {
				t.Fatalf("%d nodes: chip %d: no SRAM result", tc.nodes, c)
			}
			acc := cl.Chip(c).Stream(RingAcc)
			if !bytes.Equal(data, acc[:]) {
				t.Fatalf("%d nodes: chip %d: SRAM result differs from stream", tc.nodes, c)
			}
		}
	}
}

// TestPipelineFunctional checks the pipeline generator: each wave's output
// is the input plus every stage's bias, committed to each node's last
// stage's SRAM word per wave.
func TestPipelineFunctional(t *testing.T) {
	var biasSum [4]float32
	for s := 0; s < topo.TSPsPerNode; s++ {
		for i, x := range []float32{float32(s + 1), 0.5, -float32(s), 2} {
			biasSum[i] += x
		}
	}
	for _, tc := range []struct {
		nodes, waves, matmuls int
		finish                int64
	}{
		{1, 3, 1, 6570},
		{1, 8, 2, 10250},
		{8, 8, 2, 10250},
	} {
		cl := buildPipeline(t, tc.nodes, tc.waves, tc.matmuls, 1)
		finish, err := cl.Run()
		if err != nil {
			t.Fatalf("%d nodes: run: %v", tc.nodes, err)
		}
		if finish != tc.finish {
			t.Errorf("%d nodes, %d waves, %d matmuls: finish %d, want %d", tc.nodes, tc.waves, tc.matmuls, finish, tc.finish)
		}
		for n := 0; n < tc.nodes; n++ {
			first, last := n*topo.TSPsPerNode, n*topo.TSPsPerNode+topo.TSPsPerNode-1
			for w := 0; w < tc.waves; w++ {
				data, ok := cl.Chip(last).Mem.Read(mem.Addr{Offset: w})
				if !ok {
					t.Fatalf("%d nodes: node %d wave %d: no result", tc.nodes, n, w)
				}
				var v tsp.Vector
				copy(v[:], data)
				got := v.Floats()
				in := contribution(first + w)
				for i := range in {
					want := in[i] + biasSum[i]
					if math.Abs(float64(got[i]-want)) > 1e-4 {
						t.Fatalf("%d nodes: node %d wave %d lane %d = %f, want %f", tc.nodes, n, w, i, got[i], want)
					}
				}
			}
		}
	}
}

// assertSameResult compares everything the executors promise to keep
// byte-identical: per-chip finish cycles, full stream files, committed
// SRAM words, error-process tallies, and the global finish/error.
func assertSameResult(t *testing.T, label string, seq, par *Cluster, seqFinish, parFinish int64, seqErr, parErr error, addrs []mem.Addr) {
	t.Helper()
	if seqFinish != parFinish {
		t.Errorf("%s: finish %d (seq) != %d (par)", label, seqFinish, parFinish)
	}
	if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
		t.Errorf("%s: err %v (seq) != %v (par)", label, seqErr, parErr)
	}
	if seq.Corrected != par.Corrected || seq.MBEs != par.MBEs {
		t.Errorf("%s: FEC tallies (%d,%d) (seq) != (%d,%d) (par)", label, seq.Corrected, seq.MBEs, par.Corrected, par.MBEs)
	}
	for c := range seq.chips {
		if seq.Chip(c).FinishCycle() != par.Chip(c).FinishCycle() {
			t.Errorf("%s: chip %d finish %d != %d", label, c, seq.Chip(c).FinishCycle(), par.Chip(c).FinishCycle())
		}
		if seq.Chip(c).Streams() != par.Chip(c).Streams() {
			t.Errorf("%s: chip %d stream files differ", label, c)
		}
		for _, a := range addrs {
			sd, sok := seq.Chip(c).Mem.Read(a)
			pd, pok := par.Chip(c).Mem.Read(a)
			if sok != pok || !bytes.Equal(sd, pd) {
				t.Errorf("%s: chip %d SRAM %+v differs", label, c, a)
			}
		}
	}
}

// withRecorder runs f with a fresh recorder, which f attaches to what it
// builds, and returns the trace and metrics dumps it produced.
func withRecorder(t *testing.T, f func(rec *obs.Recorder)) (trace, metrics string) {
	t.Helper()
	r := obs.New()
	f(r)
	return dumpRecorder(t, r)
}

// TestParallelMatchesSequential sweeps the axis TestDeterminismMatrix
// holds fixed — topology size (one and two nodes, with and without
// background matmuls) at odd worker counts: through Run, a recorded run
// (the sequential executor) must match RunSequential in state, finish
// cycles, and the raw trace and metrics dumps, and an unrecorded one (the
// component executor) in state and finish cycles.
func TestParallelMatchesSequential(t *testing.T) {
	type buildFn func(t *testing.T, workers int) (*Cluster, []mem.Addr)
	cases := []struct {
		name  string
		build buildFn
	}{
		{"ring/1node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 1, 7, 1, w), []mem.Addr{{}}
		}},
		{"ring/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 2, 7, 0, w), []mem.Addr{{}}
		}},
		{"pipeline/1node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 1, 3, 1, w), []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
		}},
		{"pipeline/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 2, 2, 0, w), []mem.Addr{{Offset: 0}, {Offset: 1}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{2, 3, 8} {
			name := tc.name + "/w" + string(rune('0'+workers))
			t.Run(name, func(t *testing.T) {
				var seq, par *Cluster
				var seqFinish, parFinish int64
				var seqErr, parErr error
				var addrs []mem.Addr
				seqTrace, seqMetrics := withRecorder(t, func(rec *obs.Recorder) {
					seq, addrs = tc.build(t, 1)
					seq.SetRecorder(rec)
					seqFinish, seqErr = seq.RunSequential()
				})
				parTrace, parMetrics := withRecorder(t, func(rec *obs.Recorder) {
					par, _ = tc.build(t, workers)
					par.SetRecorder(rec)
					parFinish, parErr = par.Run()
				})
				assertSameResult(t, name, seq, par, seqFinish, parFinish, seqErr, parErr, addrs)
				if seqTrace != parTrace || seqMetrics != parMetrics {
					t.Errorf("%s: dumps differ from sequential", name)
				}
				comp, _ := tc.build(t, workers)
				compFinish, compErr := comp.Run()
				if ex := comp.Executor(); ex.Name != "components" {
					t.Errorf("%s: unrecorded Run chose %+v, want components", name, ex)
				}
				assertSameResult(t, name+"/unrecorded", seq, comp, seqFinish, compFinish, seqErr, compErr, addrs)
			})
		}
	}
}

// TestParallelBERMatchesSequential runs the link error process through
// Run at four workers and through RunSequential with the same seed: Run
// must keep the run on one heap, and identical per-link delivery order
// means identical corruption, corrections, and MBE counts.
func TestParallelBERMatchesSequential(t *testing.T) {
	build := func(workers int) *Cluster {
		cl := buildRing(t, 1, 7, 0, workers)
		cl.SetBitErrorRate(2e-5, 42)
		return cl
	}
	seq := build(1)
	seqFinish, seqErr := seq.RunSequential()
	if seq.Corrected == 0 {
		t.Log("note: BER produced no corrections at this seed; equivalence still checked")
	}
	par := build(4)
	parFinish, parErr := par.Run()
	if got, want := par.Executor(), (Executor{"sequential", "bit error rate", 1}); got != want {
		t.Errorf("Executor() = %+v, want %+v", got, want)
	}
	assertSameResult(t, "ber", seq, par, seqFinish, parFinish, seqErr, parErr, nil)
}

// TestParallelUnderflowFaultMatchesSequential: a schedule that lies (a
// Recv before the hop completes) must produce the identical fault — kind,
// unit, cycle, instruction — and finish cycle through RunSequential and
// through Run's component executor at four workers.
func TestParallelUnderflowFaultMatchesSequential(t *testing.T) {
	build := func(workers int) *Cluster {
		sys, err := topo.New(topo.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		var b0, b1 isa.Builder
		b0.At(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(linkIndex(t, sys, 0, 1)), B: 0})
		// The hop lands at 650; receiving at 100 underflows.
		b1.At(isa.C2C, 100, isa.Instruction{Op: isa.Recv, A: uint16(linkIndex(t, sys, 1, 0)), B: 0})
		cl, err := New(sys, []*isa.Program{b0.Program(), b1.Program()})
		if err != nil {
			t.Fatal(err)
		}
		cl.SetWorkers(workers)
		return cl
	}
	seqFinish, seqErr := build(1).RunSequential()
	sf, ok := seqErr.(*tsp.Fault)
	if !ok {
		t.Fatalf("sequential: expected an underflow *tsp.Fault, got %v", seqErr)
	}
	parFinish, parErr := build(4).Run()
	pf, ok := parErr.(*tsp.Fault)
	if !ok {
		t.Fatalf("expected an underflow *tsp.Fault, got %v", parErr)
	}
	if sf.Kind != pf.Kind || sf.Unit != pf.Unit || sf.Cycle != pf.Cycle || sf.Instr != pf.Instr {
		t.Errorf("fault identity differs: seq %+v, par %+v", sf, pf)
	}
	if seqFinish != parFinish {
		t.Errorf("fault finish differs: %d vs %d", seqFinish, parFinish)
	}
}

// TestTakeInvalidLinkUnderflows pins the take() contract: a Recv on a
// link index the chip does not have degrades to the same schedule-lied
// underflow fault as an empty queue, never a panic.
func TestTakeInvalidLinkUnderflows(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b isa.Builder
	b.At(isa.C2C, 0, isa.Instruction{Op: isa.Recv, A: 99, B: 0})
	cl, err := New(sys, []*isa.Program{b.Program()})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := cl.Run()
	f, ok := runErr.(*tsp.Fault)
	if !ok || f.Kind != tsp.ErrUnderflow {
		t.Fatalf("want underflow fault, got %v", runErr)
	}
}

// queueExecutors are the executors the queue-retention tests drive: the
// sequential heap and Run's component executor on two workers.
var queueExecutors = []struct {
	name    string
	workers int
	run     func(*Cluster) (int64, error)
}{
	{"sequential", 1, (*Cluster).RunSequential},
	{"components", 2, (*Cluster).Run},
}

// assertQueuesSeeded checks that no mailbox queue outgrew the capacity New
// seeds: a push into a full buffer with a consumed prefix slides the live
// envelopes down instead of growing.
func assertQueuesSeeded(t *testing.T, label string, cl *Cluster) {
	t.Helper()
	for c, mb := range cl.posts {
		for i := range mb.queues {
			if got := cap(mb.queues[i].buf); got > 8 {
				t.Errorf("%s: chip %d link %d: queue capacity %d, seeded 8 (retention leak)", label, c, i, got)
			}
		}
	}
}

// TestLinkQueueCapacityBounded runs a long ring workload and checks that
// mailbox backing arrays stay bounded: the head-indexed queues reclaim
// consumed prefixes instead of pinning them the way q = q[1:] re-slicing
// did, so capacity tracks peak in-flight vectors, not total traffic.
func TestLinkQueueCapacityBounded(t *testing.T) {
	const rounds = 400
	for _, ex := range queueExecutors {
		cl := buildRing(t, 2, rounds, 0, ex.workers)
		if _, err := ex.run(cl); err != nil {
			t.Fatalf("%s: run: %v", ex.name, err)
		}
		assertQueuesSeeded(t, ex.name, cl)
	}
}

// TestLinkQueueBoundedLongPipeline drives a long pipeline run — hundreds of
// waves flowing stage-to-stage down each node — and checks the same
// retention property on a workload whose queues see steady one-directional
// traffic for the whole run: every inter-stage queue moves waves*1 vectors
// end to end, yet capacity must stay at the small steady-state in-flight
// count, not grow with total traffic.
func TestLinkQueueBoundedLongPipeline(t *testing.T) {
	const waves = 500
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := PipelinePrograms(sys, waves, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range queueExecutors {
		cl, err := New(sys, progs)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetWorkers(ex.workers)
		for c := 0; c < sys.NumTSPs(); c++ {
			cl.Chip(c).SetStream(PipeBias, tsp.VectorOf([]float32{float32(c + 1)}))
			if c%topo.TSPsPerNode == 0 {
				for w := 0; w < waves; w++ {
					in := tsp.VectorOf([]float32{float32(w + 1)})
					cl.Chip(c).Mem.Write(mem.Addr{Offset: w % mem.Addresses}, in[:])
				}
			}
		}
		if _, err := ex.run(cl); err != nil {
			t.Fatalf("%s: run: %v", ex.name, err)
		}
		assertQueuesSeeded(t, ex.name, cl)
	}
}
