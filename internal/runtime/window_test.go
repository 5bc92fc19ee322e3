package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Window-executor properties beyond byte identity (TestDeterminismMatrix
// owns that): how windows are cut, where faults surface, and the pool
// under real parallelism.

// TestAdaptiveMatchesFixedAndSequential: the adaptive horizon changes how
// many barriers a run takes and nothing else. A 650-cycle checkpoint
// cadence clamps every window to the hop grid — the fixed one-hop
// partition — and both partitions must finish in the sequential state,
// with the adaptive one taking no more windows.
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
				fixF, fixE := fixed.RunParallel(workers)
				adaptive, _ := tc.build(t, workers)
				adaF, adaE := adaptive.RunParallel(workers)
				assertSameResult(t, name+"/fixed", seq, fixed, seqF, fixF, seqE, fixE, addrs)
				assertSameResult(t, name+"/adaptive", seq, adaptive, seqF, adaF, seqE, adaE, addrs)
				if fw, aw := fixed.ParStats().Windows, adaptive.ParStats().Windows; aw > fw {
					t.Errorf("%s: adaptive took %d windows, more than fixed's %d", name, aw, fw)
				}
			})
		}
	}
}

// TestAdaptiveWindowCollapse is the adaptive horizon's acceptance number:
// on a compute-heavy pipeline (50 matmuls per stage, so stages compute
// for ~4000 cycles between sends) it must cut the window count at least
// 5x against the fixed one-hop grid.
func TestAdaptiveWindowCollapse(t *testing.T) {
	fixed := buildPipeline(t, 1, 6, 50, 2)
	fixed.SetCheckpointCadence(route.HopCycles)
	fixF, err := fixed.RunParallel(2)
	if err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	adaptive := buildPipeline(t, 1, 6, 50, 2)
	adaF, err := adaptive.RunParallel(2)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if fixF != adaF {
		t.Fatalf("finish differs: fixed %d, adaptive %d", fixF, adaF)
	}
	fw, aw := fixed.ParStats().Windows, adaptive.ParStats().Windows
	if aw == 0 || fw < 5*aw {
		t.Fatalf("window collapse too small: fixed %d vs adaptive %d (need >= 5x)", fw, aw)
	}
	// Windows need not tile the run (the next window starts at the new
	// earliest cursor, which can sit past the previous end), so the
	// meaningful telemetry invariant is that the mean horizon beats the
	// fixed one-hop lookahead.
	ps := adaptive.ParStats()
	if ps.HorizonCycles <= aw*route.HopCycles {
		t.Errorf("summed horizons %d over %d windows: mean does not beat the fixed %d-cycle hop",
			ps.HorizonCycles, aw, route.HopCycles)
	}
}

// boundaryCluster builds the sharpest causality case the adaptive horizon
// allows: chip 0's Send issues exactly at its static bound (a RUNTIME_
// DESKEW with Imm 0 holds the cursor, so an overestimated bound would
// move the window end past the arrival), and chip 1 consumes the vector
// at exactly send + HopCycles — the first legal cycle, which is also
// exactly the window end the executor derives.
func boundaryCluster(t *testing.T, workers int, recvAt int64) *Cluster {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	l01, err := localLinkIndex(sys, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l10, err := localLinkIndex(sys, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := &isa.Program{}, &isa.Program{}
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 100})
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.RuntimeDeskew, Imm: 0})
	p0.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: uint16(l01), B: 5})
	p1.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: int32(recvAt)})
	p1.AppendTo(isa.C2C, isa.Instruction{Op: isa.Recv, A: uint16(l10), B: 3})
	cl, err := New(sys, []*isa.Program{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetWorkers(workers)
	cl.Chip(0).SetStream(5, tsp.VectorOf([]float32{42, -7, 3.5}))
	return cl
}

// TestAdaptiveBoundarySendCausality: the send issues at cycle 100 (its
// exact bound), arrives at 750, and the conservative window computed at
// the first barrier ends at exactly 750 — so at every worker count a Recv
// at 750 lands in the next window and consumes the vector, and a Recv one
// cycle earlier surfaces the sequential executor's underflow fault.
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
	for _, workers := range []int{1, 2, 8} {
		name := fmt.Sprintf("w%d", workers)
		par := boundaryCluster(t, workers, arrival)
		parF, parE := par.RunParallel(workers)
		assertSameResult(t, name, seq, par, seqF, parF, seqE, parE, nil)
		if got := par.Chip(1).Stream(3); got != want {
			t.Errorf("%s: received vector differs (recv admitted before the flush?)", name)
		}
		_, parErr := boundaryCluster(t, workers, arrival-1).RunParallel(workers)
		if pf, ok := parErr.(*tsp.Fault); !ok || pf.Kind != sf.Kind || pf.Cycle != sf.Cycle || pf.Instr != sf.Instr {
			t.Errorf("%s: early recv fault differs: seq %v, par %v", name, seqErr, parErr)
		}
	}
}

// checkFaultPlan runs the ring under a fault plan (and an optional
// checkpoint cadence) at workers 1/2/8. Against the sequential executor
// only the abandonment identity is promised on a faulted run — same
// error, same finish (a window steps surviving chips toward its horizon
// before the barrier surfaces the fault); across worker counts, the
// abandoned state and full dumps must match.
func checkFaultPlan(t *testing.T, ckptEvery int64, events func(sys *topo.System) []faultplan.Event) {
	t.Helper()
	build := func(workers int) *Cluster {
		cl := buildRing(t, 2, 7, 1, workers)
		compiled, err := (&faultplan.Plan{Events: events(cl.sys)}).Compile(cl.sys)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetFaultPlan(compiled, 0, 1)
		cl.SetCheckpointCadence(ckptEvery)
		return cl
	}
	seqF, seqE := build(1).RunSequential()
	if seqE == nil {
		t.Fatalf("expected the fault plan to abandon the run")
	}
	var ref runOutcome
	for _, workers := range []int{1, 2, 8} {
		name := fmt.Sprintf("w%d", workers)
		got := observe(t, true, 0, func() *Cluster { return build(workers) },
			func(cl *Cluster) (int64, error) { return cl.RunParallel(workers) })
		if ref.cl == nil {
			ref = got
		}
		// Error and finish against sequential, abandoned state and dumps
		// against w1.
		assertSameResult(t, name, ref.cl, got.cl, seqF, got.finish, seqE, got.err, nil)
		if got.trace != ref.trace || got.metrics != ref.metrics {
			t.Errorf("%s: dumps differ from w1", name)
		}
	}
}

// TestFaultAtAdaptiveBarrier pins chip deaths that coincide with window
// barriers and cadence lines: with a 650-cycle checkpoint cadence armed,
// a death exactly on a hop-grid line and one mid-window.
func TestFaultAtAdaptiveBarrier(t *testing.T) {
	for _, death := range []int64{2 * int64(route.HopCycles), 1955} {
		checkFaultPlan(t, route.HopCycles, func(*topo.System) []faultplan.Event {
			return []faultplan.Event{{Cycle: death, Kind: faultplan.StuckChip, Chip: 3}}
		})
	}
}

// TestSpecFaultMidSpeculatedWindow sweeps fault-plan event kinds (chip
// death, node death, link carrier loss) landing inside windows. The death
// cycles sit on and off the hop grid so the death clamp lands both on a
// barrier and mid-window, exercising the death-clamp × NextSendBound
// interaction in the horizon derivation.
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
			for _, lid := range sys.Out(0) {
				if sys.Link(lid).To == 1 {
					return []faultplan.Event{{Cycle: 900, Until: 4000, Kind: faultplan.LinkDown, Link: lid}}
				}
			}
			t.Fatal("no 0→1 link in the ring topology")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkFaultPlan(t, 0, tc.events) })
	}
}

// TestCheckpointCadenceMidExtendedWindow: on the compute-heavy pipeline
// the schedule-derived horizon (~4000 cycles) dwarfs a 650-cycle
// checkpoint cadence. Window ends must clamp to the cadence lines so every
// capture still fires, once per line, and a snapshot captured
// mid-collapsed-phase must restore into a cluster at another worker count
// and finish to the straight run's exact state (exercising the
// micro-snapshot baseline invalidation on restore).
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
		t.Fatalf("%d checkpoints for a %d-cycle run at cadence %d (cadence lines skipped inside extended windows?)",
			len(store), sF, ckptEvery)
	}
	snap, err := checkpoint.Decode(store[len(store)/2].Blob)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Cluster
	var rF int64
	var rE error
	withPrimedRecorder(t, snap.Obs, func() {
		restored = build(8)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		rF, rE = restored.Run()
	})
	assertSameResult(t, "restore-mid-window", straight, restored, sF, rF, sE, rE, addrs)
}

// TestAdaptivePoolUnderRealParallelism raises GOMAXPROCS so the
// persistent worker pool actually spawns (the pool sizes itself to
// min(workers, GOMAXPROCS)-1 and runs inline on a single-proc host) and
// checks executor equivalence with live cross-thread handoff; under -race
// this is the memory-model audit of the round and merge protocol.
func TestAdaptivePoolUnderRealParallelism(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(prev)

	seqR := buildRing(t, 2, 7, 1, 1)
	seqRF, seqRE := seqR.RunSequential()
	seqP := buildPipeline(t, 1, 6, 50, 1)
	seqPF, seqPE := seqP.RunSequential()
	parR := buildRing(t, 2, 7, 1, 4)
	parRF, parRE := parR.RunParallel(4)
	assertSameResult(t, "pool/ring", seqR, parR, seqRF, parRF, seqRE, parRE, []mem.Addr{{}})
	parP := buildPipeline(t, 1, 6, 50, 4)
	parPF, parPE := parP.RunParallel(4)
	assertSameResult(t, "pool/pipeline", seqP, parP, seqPF, parPF, seqPE, parPE,
		[]mem.Addr{{Offset: 0}, {Offset: 1}})
}

// TestSingleChipWindowRunsToCompletion pins the len(heap)==1 fast path:
// the last runnable chip gets an unbounded horizon (no other chip can
// ever consume what it sends), and the recorded horizon telemetry stays
// finite — the final window reports how far the chip actually ran.
func TestSingleChipWindowRunsToCompletion(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{}
	p.AppendTo(isa.MXM, isa.Instruction{Op: isa.MatMul, Imm: 5000})
	p.AppendTo(isa.MXM, isa.Instruction{Op: isa.MatMul, Imm: 5000})
	cl, err := New(sys, []*isa.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	finish, err := cl.RunParallel(2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ps := cl.ParStats()
	if ps.Windows != 1 {
		t.Errorf("single-chip run took %d windows, want 1", ps.Windows)
	}
	if ps.HorizonCycles != finish {
		t.Errorf("horizon telemetry %d != finish %d (MaxInt64 leak?)", ps.HorizonCycles, finish)
	}
}

// TestSpecSingleWorkerMatchesRouting: Run() at workers=1 on a clean
// fabric takes the component path, not the window executor, matching
// RunSequential exactly and cutting no windows.
func TestSpecSingleWorkerMatchesRouting(t *testing.T) {
	ref := buildRing(t, 2, 7, 1, 1)
	refF, refE := ref.RunSequential()

	cl := buildRing(t, 2, 7, 1, 1)
	f, err := cl.Run()
	assertSameResult(t, "run-w1", ref, cl, refF, f, refE, err, []mem.Addr{{}})
	if ps := cl.ParStats(); ps.Windows != 0 {
		t.Errorf("workers=1 Run cut %d windows, want 0", ps.Windows)
	}
}
