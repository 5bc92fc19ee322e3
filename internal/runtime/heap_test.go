package runtime

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Heap-executor properties beyond byte identity (TestDeterminismMatrix
// owns that): how batch horizons meet cadence lines and where faults
// surface.

// TestAdaptiveMatchesFixedAndSequential: the batch horizon changes how
// far a chip steps per heap pop and nothing else. A 650-cycle checkpoint
// cadence clamps every batch to the hop grid — the fixed one-hop
// partition — while the unclamped component executor batches adaptively
// up to one hop past its component's heap minimum. Both must finish in
// RunSequential's state.
func TestAdaptiveMatchesFixedAndSequential(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, workers int) (*Cluster, []mem.Addr)
	}{
		{"ring/2node", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildRing(t, 2, 7, 1, w), []mem.Addr{{}}
		}},
		{"pipeline/heavy", func(t *testing.T, w int) (*Cluster, []mem.Addr) {
			return buildPipeline(t, 1, 3, 50, w), []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s/w%d", tc.name, workers)
			t.Run(name, func(t *testing.T) {
				seq, addrs := tc.build(t, 1)
				seqF, seqE := seq.RunSequential()
				fixed, _ := tc.build(t, workers)
				fixed.SetCheckpointCadence(route.HopCycles)
				fixF, fixE := fixed.Run()
				adaptive, _ := tc.build(t, workers)
				adaF, adaE := adaptive.Run()
				assertSameResult(t, name+"/fixed", seq, fixed, seqF, fixF, seqE, fixE, addrs)
				assertSameResult(t, name+"/adaptive", seq, adaptive, seqF, adaF, seqE, adaE, addrs)
				if fx, ax := fixed.Executor().Name, adaptive.Executor().Name; fx != "sequential" || ax != "components" {
					t.Errorf("%s: executors %q (fixed) and %q (adaptive), want sequential and components", name, fx, ax)
				}
			})
		}
	}
}

// boundaryCluster builds the sharpest causality case a batch horizon
// meets: chip 0's Send issues at cycle 100 behind a RUNTIME_DESKEW with
// Imm 0 (which holds the cursor), and chip 1 consumes the vector at
// exactly send + HopCycles — the first legal cycle.
func boundaryCluster(t *testing.T, workers int, recvAt int64) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b0, b1 isa.Builder
	b0.At(isa.C2C, 100, isa.Instruction{Op: isa.RuntimeDeskew, Imm: 0})
	b0.After(isa.C2C, 0, isa.Instruction{Op: isa.Send, A: uint16(linkIndex(t, sys, 0, 1)), B: 5})
	b1.At(isa.C2C, recvAt, isa.Instruction{Op: isa.Recv, A: uint16(linkIndex(t, sys, 1, 0)), B: 3})
	cl, err := New(sys, []*isa.Program{b0.Program(), b1.Program()})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	cl.Chip(0).SetStream(5, tsp.VectorOf([]float32{42, -7, 3.5}))
	return cl
}

// TestAdaptiveBoundarySendCausality: the send issues at cycle 100 and
// arrives at 750. Through Run — the component executor, and the
// sequential one with a checkpoint cadence whose line sits exactly on the
// arrival — at every worker count a Recv at 750 consumes the vector, and
// a Recv one cycle earlier surfaces RunSequential's underflow fault.
func TestAdaptiveBoundarySendCausality(t *testing.T) {
	const arrival = 100 + int64(route.HopCycles)
	want := tsp.VectorOf([]float32{42, -7, 3.5})

	seq := boundaryCluster(t, 1, arrival)
	seqF, seqE := seq.RunSequential()
	if seqE != nil {
		t.Fatalf("sequential: %v", seqE)
	}
	if got := seq.Chip(1).Stream(3); got != want {
		t.Fatalf("sequential: received vector differs")
	}
	_, seqErr := boundaryCluster(t, 1, arrival-1).RunSequential()
	sf, ok := seqErr.(*tsp.Fault)
	if !ok || sf.Kind != tsp.ErrUnderflow {
		t.Fatalf("sequential early recv: want underflow, got %v", seqErr)
	}
	for _, ckpt := range []int64{0, arrival} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("ckpt%d/w%d", ckpt, workers)
			build := func(recvAt int64) *Cluster {
				cl := boundaryCluster(t, workers, recvAt)
				cl.SetCheckpointCadence(ckpt)
				return cl
			}
			cl := build(arrival)
			f, err := cl.Run()
			assertSameResult(t, name, seq, cl, seqF, f, seqE, err, nil)
			if got := cl.Chip(1).Stream(3); got != want {
				t.Errorf("%s: received vector differs (recv admitted before the send?)", name)
			}
			_, runErr := build(arrival - 1).Run()
			if rf, ok := runErr.(*tsp.Fault); !ok || rf.Kind != sf.Kind || rf.Cycle != sf.Cycle || rf.Instr != sf.Instr {
				t.Errorf("%s: early recv fault differs: seq %v, Run %v", name, seqErr, runErr)
			}
		}
	}
}

// checkFaultPlan runs the ring under a fault plan (and an optional
// checkpoint cadence) through Run at workers 1/2/8, which must keep it on
// the sequential executor: error, finish, abandoned state and full dumps
// must all match RunSequential's.
func checkFaultPlan(t *testing.T, ckptEvery int64, events func(sys *topo.System) []faultplan.Event) {
	t.Helper()
	build := func(workers int) func() *Cluster {
		return func() *Cluster {
			cl := buildRing(t, 2, 7, 1, workers)
			compiled, err := (&faultplan.Plan{Events: events(cl.sys)}).Compile(cl.sys)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetFaultPlan(compiled, 0, 1)
			cl.SetCheckpointCadence(ckptEvery)
			return cl
		}
	}
	seq := observe(t, true, 0, build(1), (*Cluster).RunSequential)
	if seq.err == nil {
		t.Fatalf("expected the fault plan to abandon the run")
	}
	for _, workers := range []int{1, 2, 8} {
		name := fmt.Sprintf("w%d", workers)
		got := observe(t, true, 0, build(workers), (*Cluster).Run)
		if ex := got.cl.Executor(); ex.Name != "sequential" {
			t.Errorf("%s: Run chose %+v, want sequential", name, ex)
		}
		assertSameResult(t, name, seq.cl, got.cl, seq.finish, got.finish, seq.err, got.err, []mem.Addr{{}})
		if got.trace != seq.trace || got.metrics != seq.metrics {
			t.Errorf("%s: dumps differ from sequential", name)
		}
	}
}

// TestFaultAtAdaptiveBarrier pins chip deaths that coincide with heap
// barriers and cadence lines: with a 650-cycle checkpoint cadence armed,
// a death exactly on a hop-grid line and one between lines.
func TestFaultAtAdaptiveBarrier(t *testing.T) {
	for _, death := range []int64{2 * int64(route.HopCycles), 1955} {
		checkFaultPlan(t, route.HopCycles, func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: death, Kind: faultplan.StuckChip, Chip: 3}}
		})
	}
}

// TestSpecFaultMidSpeculatedWindow sweeps fault-plan event kinds (chip
// death, node death, link carrier loss) landing inside batches. The death
// cycles sit on and off the hop grid so the death clamp lands both on a
// batch horizon and inside a batch.
func TestSpecFaultMidSpeculatedWindow(t *testing.T) {
	cases := []struct {
		name   string
		events func(sys *topo.System) []faultplan.Event
	}{
		{"chip-death-mid-window", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 1955, Kind: faultplan.StuckChip, Chip: 3}}
		}},
		{"chip-death-on-hop-grid", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 2 * int64(route.HopCycles), Kind: faultplan.StuckChip, Chip: 3}}
		}},
		{"node-death", func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: 1700, Kind: faultplan.NodeDeath, Node: 1}}
		}},
		{"link-down", func(sys *topo.System) []faultplan.Event {
			// Carrier loss on the ring link 0→1, armed over round 2's send.
			return []faultplan.Event{{Cycle: 900, Until: 4000, Kind: faultplan.LinkDown, Link: ringLink(t, sys, 0, 1)}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkFaultPlan(t, 0, tc.events) })
	}
}

// TestCheckpointCadenceMidExtendedWindow: an unclamped batch runs at
// least one hop past the heap minimum, so on the compute-heavy pipeline
// nearly every batch would cross a 650-cycle cadence line. Batch horizons
// must clamp
// to the cadence lines so every capture still fires, once per line, and a
// snapshot captured mid-compute-phase must restore into a cluster at
// another worker count and finish to the straight run's exact state
// (exercising the micro-snapshot baseline invalidation on restore).
func TestCheckpointCadenceMidExtendedWindow(t *testing.T) {
	const ckptEvery = 650
	build := func(workers int) *Cluster {
		cl := buildPipeline(t, 1, 3, 50, workers)
		cl.SetCheckpointCadence(ckptEvery)
		return cl
	}
	addrs := []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
	straight := build(1)
	sF, sE := straight.Run()
	if sE != nil {
		t.Fatalf("straight run: %v", sE)
	}
	store := straight.Checkpoints()
	// Cadence clamping means one capture per 650-cycle line over the whole
	// run — a skipped line would show up as a short store.
	if wantMin := int(sF/ckptEvery) - 1; len(store) < wantMin {
		t.Fatalf("%d checkpoints for a %d-cycle run at cadence %d (cadence lines skipped inside long batches?)",
			len(store), sF, ckptEvery)
	}
	snap, err := checkpoint.Decode(store[len(store)/2].Blob)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Cluster
	var rF int64
	var rE error
	withRecorder(t, func(rec *obs.Recorder) {
		rec.LoadState(snap.Obs)
		restored = build(8)
		restored.SetRecorder(rec)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		rF, rE = restored.Run()
	})
	assertSameResult(t, "restore-mid-window", straight, restored, sF, rF, sE, rE, addrs)
}

// TestChipHeapRescheduleMatchesPopPush: runHeap runs the chip at the top
// of the heap, then keys it in place and sifts it down (reschedule), where
// it used to pop it and push it back. Over random (t, idx) heaps with many
// equal t, both must pop the same sequence, ties going to the lower index,
// and secondT must be the key the pop exposes: the batch horizon's base.
func TestChipHeapRescheduleMatchesPopPush(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := range 500 {
		var inPlace, popPush chipHeap
		for i := range 1 + rng.IntN(12) {
			e := chipHeapEntry{t: int64(rng.IntN(4)), idx: i}
			inPlace.push(e)
			popPush.push(e)
		}
		for step := 0; len(popPush) > 0; step++ {
			top := popPush.pop()
			if inPlace[0] != top {
				t.Fatalf("trial %d step %d: top %+v, pop-then-push %+v", trial, step, inPlace[0], top)
			}
			m, ok := inPlace.secondT()
			if ok != (len(popPush) > 0) || ok && m != popPush[0].t {
				t.Fatalf("trial %d step %d: secondT (%d, %v), rest %v", trial, step, m, ok, popPush)
			}
			// A batch never moves a chip's next issue backwards, and one
			// in four leaves the heap (finished, parked or faulted).
			next, stay := top.t+int64(rng.IntN(3)), rng.IntN(4) > 0
			if stay {
				popPush.push(chipHeapEntry{t: next, idx: top.idx})
			}
			inPlace.reschedule(next, stay)
		}
		if len(inPlace) != 0 {
			t.Fatalf("trial %d: %d entries left after pop-then-push drained", trial, len(inPlace))
		}
	}
}

// TestFaultedChipLeavesHeap: a chip that faults in its batch reports !ok
// from StepUntil, so runHeap's reschedule takes it out of the heap before
// earliestFault settles the fault against the other chips, as the pop did
// before. Chip 0 underflows at cycle 10 while chips 1 and 2 wait at 0.
func TestFaultedChipLeavesHeap(t *testing.T) {
	build := func() *Cluster {
		sys, err := topo.New(topo.Config{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		p0, p1 := &isa.Program{}, &isa.Program{}
		p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 10})
		p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Recv, A: 0, B: 3})
		p1.AppendTo(isa.MEM, isa.Instruction{Op: isa.Nop, Imm: 1000})
		cl, err := New(sys, []*isa.Program{p0, p1, p1})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := build()
	h := cl.runnableHeap(cl.allChips())
	e := h[0]
	if e.idx != 0 || len(h) != 3 {
		t.Fatalf("heap %v, want chip 0 on top of 3", h)
	}
	next, ok := cl.chips[e.idx].StepUntil(e.t + int64(route.HopCycles))
	h.reschedule(next, ok)
	f := cl.chips[e.idx].Fault()
	if f == nil || f.Kind != tsp.ErrUnderflow || f.Cycle != 10 {
		t.Fatalf("chip 0 fault %v, want an underflow at 10", f)
	}
	for _, x := range h {
		if x.idx == e.idx {
			t.Fatalf("faulted chip still in the heap: %v", h)
		}
	}
	if len(h) != 2 {
		t.Fatalf("heap %v, want chips 1 and 2", h)
	}
	if fi := cl.earliestFault(h, e.idx); fi != 0 {
		t.Fatalf("earliestFault = chip %d, want 0", fi)
	}
	_, err := build().RunSequential()
	if sf, ok := err.(*tsp.Fault); !ok || *sf != *f {
		t.Fatalf("RunSequential error %v, want %v", err, f)
	}
}
