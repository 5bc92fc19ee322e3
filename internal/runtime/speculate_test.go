package runtime

import (
	"bytes"
	goruntime "runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/mem"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// runSpec runs a cluster on the speculative executor with the given
// speculation depth (0 = keep the default).
func runSpec(cl *Cluster, workers int, depth int64) (int64, error) {
	cl.SetSpeculate(true)
	if depth > 0 {
		cl.SetSpecDepth(depth)
	}
	return cl.RunSpeculative(workers)
}

// TestSpeculativeMatchesSequential is the tentpole equivalence at its
// strongest: the speculative executor's trace and metrics dumps must be
// byte-identical to the plain sequential executor's — raw, unfiltered —
// across workloads and worker counts, alongside the usual state identity.
// No runtime.spec.* or runtime.par.* key may appear in either dump; the
// volatile registry keeps host-partition telemetry out of the exports.
func TestSpeculativeMatchesSequential(t *testing.T) {
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
		var seq *Cluster
		var seqF int64
		var seqE error
		var addrs []mem.Addr
		seqT, seqM := withRecorder(t, func() {
			seq, addrs = tc.build(t, 1)
			seqF, seqE = seq.RunSequential()
		})
		for _, workers := range []int{1, 2, 4, 8} {
			var spec *Cluster
			var specF int64
			var specE error
			specT, specM := withRecorder(t, func() {
				spec, _ = tc.build(t, workers)
				specF, specE = runSpec(spec, workers, 0)
			})
			name := tc.name + "/w" + string(rune('0'+workers))
			assertSameResult(t, name, seq, spec, seqF, specF, seqE, specE, addrs)
			if specT != seqT {
				t.Errorf("%s: trace dump differs from sequential", name)
			}
			if specM != seqM {
				t.Errorf("%s: metrics dump differs from sequential", name)
			}
			if ss := spec.SpecStats(); ss.Windows == 0 {
				t.Errorf("%s: speculative run recorded no windows", name)
			}
		}
	}
}

// TestSpecConservativeExportIdentity is the satellite-2 fix test: a
// speculative and a conservative run with series sampling and checkpoint
// capture armed must produce byte-identical trace, metrics, and series
// exports and byte-identical checkpoint blobs — no filtering. The
// runtime.spec.* rollback state lives in volatile counters exactly like
// runtime.par.barrier_ns, so it is invisible to every export surface even
// though the in-process SpecStats read-back sees it.
func TestSpecConservativeExportIdentity(t *testing.T) {
	const ckptEvery, seriesEvery = 1300, 1300
	type result struct {
		cl      *Cluster
		finish  int64
		err     error
		t, m, s string
	}
	run := func(speculate bool, workers int) result {
		var r result
		r.t, r.m, r.s = withSeriesRecorder(t, seriesEvery, func() {
			r.cl = buildRing(t, 2, 7, 1, workers)
			r.cl.SetCheckpointCadence(ckptEvery)
			r.cl.SetSpeculate(speculate)
			r.finish, r.err = r.cl.Run()
		})
		if r.err != nil {
			t.Fatalf("run(spec=%v w=%d): %v", speculate, workers, r.err)
		}
		return r
	}
	cons := run(false, 2)
	for _, workers := range []int{2, 4, 8} {
		spec := run(true, workers)
		if spec.t != cons.t || spec.m != cons.m || spec.s != cons.s {
			t.Errorf("w=%d: speculative exports differ from conservative (trace %v, metrics %v, series %v)",
				workers, spec.t != cons.t, spec.m != cons.m, spec.s != cons.s)
		}
		sb, cb := spec.cl.Checkpoints(), cons.cl.Checkpoints()
		if len(sb) != len(cb) {
			t.Fatalf("w=%d: %d checkpoints, conservative took %d", workers, len(sb), len(cb))
		}
		for i := range cb {
			if !bytes.Equal(sb[i].Blob, cb[i].Blob) {
				t.Errorf("w=%d: checkpoint %d blob differs (runtime.spec state leaked into the snapshot?)", workers, i)
			}
		}
		if ss := spec.cl.SpecStats(); ss.Windows == 0 {
			t.Errorf("w=%d: no speculative windows recorded despite identical exports", workers)
		}
	}
	if rs := cons.cl.SpecStats(); rs.Windows != 0 || rs.Rollbacks != 0 {
		t.Errorf("conservative run carries speculation stats %+v", rs)
	}
}

// TestSpecCollapsesBarriers is the perf shape the tentpole promises: on
// the communication-bound ring the speculative executor must take fewer
// barriers than the conservative adaptive one (it runs chips past the
// send-bound horizon), while recording the rollbacks it paid for them.
func TestSpecCollapsesBarriers(t *testing.T) {
	cons := buildRing(t, 2, 7, 1, 2)
	if _, err := cons.RunParallel(2); err != nil {
		t.Fatalf("conservative: %v", err)
	}
	spec := buildRing(t, 2, 7, 1, 2)
	if _, err := runSpec(spec, 2, 0); err != nil {
		t.Fatalf("speculative: %v", err)
	}
	cw, sw := cons.ParStats().Windows, spec.SpecStats().Windows
	if sw == 0 || sw >= cw {
		t.Errorf("speculative took %d windows, conservative %d — speculation bought nothing", sw, cw)
	}
	if spec.SpecStats().Rollbacks == 0 {
		t.Errorf("ring all-reduce speculated with zero rollbacks (stall detection dead?)")
	}
	// Deeper speculation can only merge barriers, never add them.
	prev := int64(-1)
	for _, depth := range []int64{1, 2, 4, 8} {
		cl := buildRing(t, 2, 7, 1, 2)
		if _, err := runSpec(cl, 2, depth); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		w := cl.SpecStats().Windows
		if prev >= 0 && w > prev {
			t.Errorf("depth %d took %d windows, shallower depth took %d", depth, w, prev)
		}
		prev = w
	}
}

// TestSpecBoundarySendCausality pins the sharpest cross-window edge under
// speculation: a Recv at exactly send + HopCycles must consume the vector
// (the stall machinery parks the receiver until the barrier flush), and a
// Recv one cycle earlier must surface the identical underflow fault the
// sequential executor reports, at every worker count.
func TestSpecBoundarySendCausality(t *testing.T) {
	const arrival = 100 + int64(route.HopCycles)
	want := tsp.VectorOf([]float32{42, -7, 3.5})

	seq := boundaryCluster(t, 1, arrival)
	seqF, seqE := seq.RunSequential()
	if seqE != nil {
		t.Fatalf("sequential: %v", seqE)
	}
	for _, workers := range []int{1, 2, 8} {
		spec := boundaryCluster(t, workers, arrival)
		specF, specE := runSpec(spec, workers, 0)
		assertSameResult(t, "spec-boundary", seq, spec, seqF, specF, seqE, specE, nil)
		if got := spec.Chip(1).Stream(3); got != want {
			t.Errorf("workers=%d: received vector differs (speculation admitted the recv early?)", workers)
		}
	}

	seqEarly := boundaryCluster(t, 1, arrival-1)
	_, seqErr := seqEarly.RunSequential()
	sf, ok := seqErr.(*tsp.Fault)
	if !ok || sf.Kind != tsp.ErrUnderflow {
		t.Fatalf("sequential early recv: want underflow, got %v", seqErr)
	}
	for _, workers := range []int{1, 2, 8} {
		specEarly := boundaryCluster(t, workers, arrival-1)
		_, specErr := runSpec(specEarly, workers, 0)
		pf, ok := specErr.(*tsp.Fault)
		if !ok || pf.Kind != sf.Kind || pf.Cycle != sf.Cycle || pf.Instr != sf.Instr {
			t.Errorf("workers=%d: fault differs: seq %v, spec %v", workers, seqErr, specErr)
		}
	}
}

// TestSpecFaultMidSpeculatedWindow is the satellite-3 coverage: fault-plan
// events (chip death, node death, link carrier loss) landing inside a
// speculated window. The abandonment identity against the sequential
// executor — same error, same finish — must hold, and the full dumps must
// be byte-identical across worker counts 1/2/8. The death cycles are
// chosen off the hop grid so the clamp lands mid-window, exercising the
// death-clamp × NextSendBound interaction in the horizon derivation.
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
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) *Cluster {
				cl := buildRing(t, 2, 7, 1, workers)
				plan := &faultplan.Plan{Events: tc.events(cl.sys)}
				compiled, err := plan.Compile(cl.sys)
				if err != nil {
					t.Fatal(err)
				}
				cl.SetFaultPlan(compiled, 0, 1)
				return cl
			}
			seq := build(1)
			seqF, seqE := seq.RunSequential()
			if seqE == nil {
				t.Fatalf("expected the fault plan to abandon the run")
			}
			var refTrace, refMetrics string
			var refSpec *Cluster
			for i, workers := range []int{1, 2, 8} {
				var spec *Cluster
				var specF int64
				var specE error
				trace, metrics := withRecorder(t, func() {
					spec = build(workers)
					specF, specE = runSpec(spec, workers, 0)
				})
				if specF != seqF {
					t.Errorf("workers=%d: finish %d != sequential %d", workers, specF, seqF)
				}
				if specE == nil || specE.Error() != seqE.Error() {
					t.Errorf("workers=%d: error %v != sequential %v", workers, specE, seqE)
				}
				if i == 0 {
					refTrace, refMetrics, refSpec = trace, metrics, spec
					continue
				}
				if trace != refTrace || metrics != refMetrics {
					t.Errorf("workers=%d: dumps differ from workers=1", workers)
				}
				assertSameResult(t, tc.name, refSpec, spec, seqF, specF, seqE, specE, nil)
			}
		})
	}
}

// TestSpecCheckpointCadenceMidWindow arms both cadences on the
// compute-heavy pipeline and requires the speculative executor to clamp
// its extended windows to every cadence line: dumps, series, and every
// checkpoint blob byte-identical to the workers=1 conservative reference,
// and a mid-run snapshot must restore into a speculative cluster and
// finish to the exact straight-run state (exercising the micro-snapshot
// baseline invalidation on restore).
func TestSpecCheckpointCadenceMidWindow(t *testing.T) {
	const ckptEvery, seriesEvery = 650, 1300
	build := func(workers int, speculate bool) *Cluster {
		cl := buildPipeline(t, 1, 3, 50, workers)
		cl.SetCheckpointCadence(ckptEvery)
		cl.SetSpeculate(speculate)
		return cl
	}
	addrs := []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}

	var straight *Cluster
	var sF int64
	var sE error
	sTrace, sMetrics, sSeries := withSeriesRecorder(t, seriesEvery, func() {
		straight = build(1, false)
		sF, sE = straight.Run()
	})
	if sE != nil {
		t.Fatalf("straight run: %v", sE)
	}
	store := straight.Checkpoints()

	for _, workers := range []int{2, 8} {
		var spec *Cluster
		var pF int64
		var pE error
		pTrace, pMetrics, pSeries := withSeriesRecorder(t, seriesEvery, func() {
			spec = build(workers, true)
			pF, pE = spec.Run()
		})
		if pTrace != sTrace || pMetrics != sMetrics || pSeries != sSeries {
			t.Errorf("workers=%d: dumps differ from the straight run", workers)
		}
		assertSameResult(t, "spec-ckpt-mid-window", straight, spec, sF, pF, sE, pE, addrs)
		got := spec.Checkpoints()
		if len(got) != len(store) {
			t.Fatalf("workers=%d: %d checkpoints, want %d", workers, len(got), len(store))
		}
		for i := range store {
			if !bytes.Equal(got[i].Blob, store[i].Blob) {
				t.Errorf("workers=%d: checkpoint %d blob differs", workers, i)
			}
		}
	}

	mid := store[len(store)/2]
	snap, err := checkpoint.Decode(mid.Blob)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Cluster
	var rF int64
	var rE error
	withPrimedRecorder(t, snap.Obs, func() {
		restored = build(8, true)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		rF, rE = restored.Run()
	})
	assertSameResult(t, "spec-restore-mid-window", straight, restored, sF, rF, sE, rE, addrs)
}

// TestSpecPoolUnderRealParallelism raises GOMAXPROCS so the persistent
// worker pool actually spawns and the speculative round protocol hands
// chips across threads; under -race this is the memory-model audit of the
// stall-and-merge machinery.
func TestSpecPoolUnderRealParallelism(t *testing.T) {
	prev := goruntime.GOMAXPROCS(4)
	defer goruntime.GOMAXPROCS(prev)

	seqR := buildRing(t, 2, 7, 1, 1)
	seqRF, seqRE := seqR.RunSequential()
	specR := buildRing(t, 2, 7, 1, 4)
	specRF, specRE := runSpec(specR, 4, 0)
	assertSameResult(t, "spec-pool/ring", seqR, specR, seqRF, specRF, seqRE, specRE, []mem.Addr{{}})

	seqP := buildPipeline(t, 1, 6, 50, 1)
	seqPF, seqPE := seqP.RunSequential()
	specP := buildPipeline(t, 1, 6, 50, 4)
	specPF, specPE := runSpec(specP, 4, 0)
	assertSameResult(t, "spec-pool/pipeline", seqP, specP, seqPF, specPF, seqPE, specPE,
		[]mem.Addr{{Offset: 0}, {Offset: 1}})
}

// TestDeltaSnapshotMatchesFullCapture pins the micro-snapshot fast path's
// contract: a delta capture (dirty-page reuse against the previous
// baseline) must encode to exactly the bytes of a from-scratch full walk.
// The test drives buildSnapshot directly — first capture arms the chain,
// targeted SRAM mutations dirty a few vectors, the second capture takes
// the delta path, and a third with the baseline dropped is the full-walk
// reference.
func TestDeltaSnapshotMatchesFullCapture(t *testing.T) {
	cl := buildRing(t, 2, 7, 1, 1)
	if _, err := cl.RunSequential(); err != nil {
		t.Fatalf("run: %v", err)
	}

	first := cl.buildSnapshot(0)
	if cl.ckptPrev == nil {
		t.Fatal("first capture did not arm the delta baseline")
	}
	full0 := checkpoint.Encode(first)

	// Mutate a few chips: an overwrite, a fresh vector, a latent upset,
	// and a scrub (FlipBit then a corrected read) — every dirty path.
	var buf [mem.VectorBytes]byte
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	cl.Chip(0).Mem.Write(mem.Addr{}, buf[:])
	cl.Chip(1).Mem.Write(mem.Addr{Offset: 17}, buf[:])
	cl.Chip(2).Mem.FlipBit(mem.Addr{}, 5)
	cl.Chip(3).Mem.FlipBit(mem.Addr{}, 9)
	if _, ok := cl.Chip(3).Mem.Read(mem.Addr{}); !ok {
		t.Fatal("single-bit upset was not corrected")
	}

	delta := cl.buildSnapshot(650)
	deltaBytes := checkpoint.Encode(delta)

	cl.ckptPrev = nil // drop the baseline: next capture is a full walk
	fullSnap := cl.buildSnapshot(650)
	fullBytes := checkpoint.Encode(fullSnap)

	if bytes.Equal(deltaBytes, full0) {
		t.Fatal("second capture identical to the first — mutations not captured")
	}
	if !bytes.Equal(deltaBytes, fullBytes) {
		for i := range delta.Chips {
			if !bytes.Equal(checkpoint.EncodeChip(&delta.Chips[i]), checkpoint.EncodeChip(&fullSnap.Chips[i])) {
				t.Errorf("chip %d: delta capture differs from full capture", i)
			}
		}
		t.Fatal("delta-built snapshot encodes differently from a full capture")
	}
}

// TestSpecSingleWorkerMatchesRouting: Run() with speculation armed but
// workers=1 must take the sequential path (there is nothing to overlap),
// matching RunSequential exactly and recording no speculative windows.
func TestSpecSingleWorkerMatchesRouting(t *testing.T) {
	ref := buildRing(t, 2, 7, 1, 1)
	refF, refE := ref.RunSequential()

	cl := buildRing(t, 2, 7, 1, 1)
	cl.SetSpeculate(true)
	f, err := cl.Run()
	assertSameResult(t, "spec-w1", ref, cl, refF, f, refE, err, []mem.Addr{{}})
	if ss := cl.SpecStats(); ss.Windows != 0 {
		t.Errorf("workers=1 Run recorded %d speculative windows, want 0", ss.Windows)
	}
}
