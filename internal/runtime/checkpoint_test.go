package runtime

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// ringLink returns the link chip a → chip b used by the ring workloads:
// the first of the parallel links between them.
func ringLink(t *testing.T, sys *topo.System, a, b topo.TSPID) topo.LinkID {
	t.Helper()
	ls := sys.Between(a, b)
	if len(ls) == 0 {
		t.Fatalf("no %d→%d link", a, b)
	}
	return ls[0]
}

func dumpRecorder(t *testing.T, r *obs.Recorder) (trace, metrics string) {
	t.Helper()
	var tb, mb strings.Builder
	if err := r.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), mb.String()
}

// TestRestoreEquivalence is the headline invariant: restoring any
// checkpoint into a freshly built cluster and running to the end is
// byte-identical to the straight run — finish cycle, error identity,
// per-chip state, FEC tallies, the full trace and metrics dumps, and
// every checkpoint blob captured after the restore point — at every
// worker count. Exercised on a clean run under a BER excursion and on a
// run killed mid-flight by a link flap.
func TestRestoreEquivalence(t *testing.T) {
	const cadence = 650
	const seed = uint64(7)
	cases := []struct {
		name   string
		events func(sys *topo.System) []faultplan.Event
	}{
		{"ber-excursion", func(sys *topo.System) []faultplan.Event {
			return []faultplan.Event{{
				Cycle: 700, Until: 2600, Kind: faultplan.BERExcursion,
				Link: ringLink(t, sys, 0, 1), BER: 1e-4,
			}}
		}},
		{"link-flap", func(sys *topo.System) []faultplan.Event {
			return []faultplan.Event{{
				Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap,
				Link: ringLink(t, sys, 0, 1),
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) (*Cluster, *faultplan.Compiled) {
				cl := buildRing(t, 2, 7, 1, workers)
				plan := &faultplan.Plan{Events: tc.events(cl.sys)}
				compiled, err := plan.Compile(cl.sys)
				if err != nil {
					t.Fatal(err)
				}
				cl.SetCheckpointCadence(cadence)
				cl.SetFaultPlan(compiled, 0, seed)
				return cl, compiled
			}

			var straight *Cluster
			var sFinish int64
			var sErr error
			sTrace, sMetrics := withRecorder(t, func(rec *obs.Recorder) {
				straight, _ = build(1)
				straight.SetRecorder(rec)
				sFinish, sErr = straight.Run()
			})
			store := append([]Stored(nil), straight.Checkpoints()...)
			if len(store) == 0 {
				t.Fatal("straight run captured no checkpoints")
			}

			for i, st := range store {
				snap, err := checkpoint.Decode(st.Blob)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i, err)
				}
				if snap.CaptureCycle != st.Cycle {
					t.Fatalf("checkpoint %d: capture cycle %d != stored %d", i, snap.CaptureCycle, st.Cycle)
				}
				for _, workers := range []int{1, 2, 8} {
					var restored *Cluster
					var rFinish int64
					var rErr error
					// The restored run records on top of the straight run's
					// history, primed from the snapshot.
					rTrace, rMetrics := withRecorder(t, func(rec *obs.Recorder) {
						rec.LoadState(snap.Obs)
						var compiled *faultplan.Compiled
						restored = buildRing(t, 2, 7, 1, workers)
						restored.SetRecorder(rec)
						plan := &faultplan.Plan{Events: tc.events(restored.sys)}
						var perr error
						compiled, perr = plan.Compile(restored.sys)
						if perr != nil {
							t.Fatal(perr)
						}
						restored.SetCheckpointCadence(cadence)
						if err := restored.RestoreSnapshot(snap); err != nil {
							t.Fatalf("restore checkpoint %d: %v", i, err)
						}
						restored.SetFaultPlan(compiled, snap.BaseWall, seed)
						restored.SeedCheckpoints(store[:i+1])
						rFinish, rErr = restored.Run()
					})
					label := tc.name + "/ckpt" + string(rune('0'+i)) + "/w" + string(rune('0'+workers))
					assertSameResult(t, label, straight, restored, sFinish, rFinish, sErr, rErr, []mem.Addr{{}})
					if rTrace != sTrace {
						t.Errorf("%s: trace dump differs from straight run", label)
					}
					if rMetrics != sMetrics {
						t.Errorf("%s: metrics dump differs from straight run", label)
					}
					got := restored.Checkpoints()
					if len(got) != len(store) {
						t.Errorf("%s: %d checkpoints after restore, straight run has %d", label, len(got), len(store))
						continue
					}
					for j := range store {
						if string(got[j].Blob) != string(store[j].Blob) {
							t.Errorf("%s: checkpoint %d blob differs from straight run's", label, j)
						}
					}
				}
			}
		})
	}
}

// newResumeScenario is the ladder scenario reduced to its replay rung —
// one mid-run link flap, no node death — with checkpointing armed at the
// given cadence, so the replay should resume from the last clean barrier
// before the flap's first uncorrectable frame.
func newResumeScenario(t *testing.T, workers int, cadence int64, rec *obs.Recorder) *ladderScenario {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocation(sys, ladderDevices)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap, Link: ringLink(t, sys, 0, 1)},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ladderScenario{sys: sys, alloc: alloc, rounds: 7, workers: workers}
	sc.ladder = &Ladder{
		Sys:             sys,
		Alloc:           alloc,
		Plan:            compiled,
		Monitor:         faultplan.NewMonitor(4, 650),
		Build:           sc.build,
		MaxReplays:      4,
		MaxFailovers:    2,
		Seed:            7,
		CheckpointEvery: cadence,
		Recorder:        rec,
	}
	return sc
}

// TestLadderResumesFromCheckpoint: with checkpointing armed, the replay
// rung restores the newest clean snapshot preceding the detection cycle
// instead of re-basing to cycle 0 — same functional result, same
// run-local finish cycle, strictly fewer replayed cycles — and the
// restore source is recorded. Byte-identical across worker counts.
func TestLadderResumesFromCheckpoint(t *testing.T) {
	run := func(workers int) (*ladderScenario, *LadderResult, string, string) {
		var sc *ladderScenario
		var res *LadderResult
		trace, metrics := withRecorder(t, func(rec *obs.Recorder) {
			sc = newResumeScenario(t, workers, 650, rec)
			var err error
			res, err = sc.ladder.Run()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return sc, res, trace, metrics
	}
	sc, res, trace, metrics := run(1)
	if res.Attempts != 2 || res.Replays != 1 || res.Failovers != 0 {
		t.Errorf("attempts/replays/failovers = %d/%d/%d, want 2/1/0", res.Attempts, res.Replays, res.Failovers)
	}
	if res.Resumes != 1 || len(res.ResumedFrom) != 1 {
		t.Fatalf("resumes = %d (%v), want 1", res.Resumes, res.ResumedFrom)
	}
	if res.ResumedFrom[0] <= 0 || res.ResumedFrom[0] >= res.Finish {
		t.Errorf("resumed from %d, want inside (0, %d)", res.ResumedFrom[0], res.Finish)
	}
	// The resumed replay keeps the original wall base: its past was
	// restored, not re-executed after a turnaround.
	if res.Base != 0 {
		t.Errorf("resumed replay re-based to %d, want 0", res.Base)
	}
	sc.checkResult(t, res)
	for _, key := range []string{
		`"checkpoint.restore_source{source=snapshot}":1`,
		`"recovery.link_repairs":1`,
		`"recovery.replays":1`,
	} {
		if !strings.Contains(metrics, key) {
			t.Errorf("metrics dump missing %s", key)
		}
	}
	if !strings.Contains(trace, `"checkpoint.restore"`) {
		t.Error("trace dump missing the checkpoint.restore instant")
	}

	// Same scenario without checkpointing: the cycle-0 replay reaches the
	// identical run-local finish, but re-executes the whole run.
	sc0, res0, _, metrics0 := func() (*ladderScenario, *LadderResult, string, string) {
		var sc *ladderScenario
		var res *LadderResult
		tr, me := withRecorder(t, func(rec *obs.Recorder) {
			sc = newResumeScenario(t, 1, 0, rec)
			var err error
			res, err = sc.ladder.Run()
			if err != nil {
				t.Fatal(err)
			}
		})
		return sc, res, tr, me
	}()
	sc0.checkResult(t, res0)
	if res0.Finish != res.Finish {
		t.Errorf("finish %d with checkpoints != %d without", res.Finish, res0.Finish)
	}
	if res0.Resumes != 0 || res0.Base == 0 {
		t.Errorf("cycle-0 ladder: resumes=%d base=%d, want 0 resumes and a re-based attempt", res0.Resumes, res0.Base)
	}
	if strings.Contains(metrics0, "checkpoint.restore_source") {
		t.Error("disarmed ladder should not report a restore source")
	}
	replayed := res.Finish - res.ResumedFrom[0]
	if replayed >= res0.Finish {
		t.Errorf("resumed replay re-executed %d cycles, not fewer than the cycle-0 replay's %d", replayed, res0.Finish)
	}

	// Worker invariance of the resumed walk, dumps included.
	for _, w := range []int{2, 8} {
		scW, resW, traceW, metricsW := run(w)
		if resW.Finish != res.Finish || resW.Base != res.Base || resW.Resumes != res.Resumes {
			t.Errorf("workers=%d: finish/base/resumes %d/%d/%d != %d/%d/%d",
				w, resW.Finish, resW.Base, resW.Resumes, res.Finish, res.Base, res.Resumes)
		}
		scW.checkResult(t, resW)
		if traceW != trace {
			t.Errorf("workers=%d: trace dump differs", w)
		}
		if metricsW != metrics {
			t.Errorf("workers=%d: metrics dump differs", w)
		}
	}
}

// TestLadderCorruptCheckpointFallsBackToCycle0: when every stored
// snapshot is corrupted between capture and resume, the ladder discards
// them (counting each), replays from cycle 0, and still produces the
// correct result — never a panic, never a wrong answer.
func TestLadderCorruptCheckpointFallsBackToCycle0(t *testing.T) {
	var sc *ladderScenario
	var res *LadderResult
	_, metrics := withRecorder(t, func(rec *obs.Recorder) {
		sc = newResumeScenario(t, 1, 650, rec)
		inner := sc.ladder.Build
		var prev *Cluster
		sc.ladder.Build = func(a *Allocation) (*Cluster, error) {
			if prev != nil {
				// Flip one payload byte in every snapshot the failed
				// attempt captured: the CRC must catch each.
				for _, st := range prev.Checkpoints() {
					st.Blob[len(st.Blob)/2] ^= 0xFF
				}
			}
			cl, err := inner(a)
			if err == nil {
				prev = cl
			}
			return cl, err
		}
		var err error
		res, err = sc.ladder.Run()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
	})
	if res.Resumes != 0 || res.Replays != 1 {
		t.Errorf("resumes/replays = %d/%d, want 0/1 (cycle-0 fallback)", res.Resumes, res.Replays)
	}
	if res.Base == 0 {
		t.Error("cycle-0 fallback should re-base the replay")
	}
	sc.checkResult(t, res)
	if !strings.Contains(metrics, `"checkpoint.restore_source{source=cycle0}":1`) {
		t.Error("metrics dump missing the cycle0 restore source")
	}
	if !strings.Contains(metrics, `"checkpoint.corrupt_discarded":`) {
		t.Error("metrics dump missing checkpoint.corrupt_discarded")
	}
}

// TestLadderNoUsableCheckpointFallsBackToCycle0: a cadence longer than
// the failed run captures nothing, so the armed ladder walks the
// original cycle-0 rung.
func TestLadderNoUsableCheckpointFallsBackToCycle0(t *testing.T) {
	var sc *ladderScenario
	var res *LadderResult
	_, metrics := withRecorder(t, func(rec *obs.Recorder) {
		sc = newResumeScenario(t, 1, 1<<30, rec)
		var err error
		res, err = sc.ladder.Run()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
	})
	if res.Resumes != 0 || res.Replays != 1 {
		t.Errorf("resumes/replays = %d/%d, want 0/1", res.Resumes, res.Replays)
	}
	sc.checkResult(t, res)
	if !strings.Contains(metrics, `"checkpoint.restore_source{source=cycle0}":1`) {
		t.Error("metrics dump missing the cycle0 restore source")
	}
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
			if !reflect.DeepEqual(delta.Chips[i], fullSnap.Chips[i]) {
				t.Errorf("chip %d: delta capture differs from full capture", i)
			}
		}
		t.Fatal("delta-built snapshot encodes differently from a full capture")
	}
}

// sameWeights reports whether two chips hold equal weight rows, read
// through full captures.
func sameWeights(a, b *tsp.Chip) bool {
	var sa, sb tsp.ChipState
	a.CaptureState(&sa)
	b.CaptureState(&sb)
	return sa.RowMask == sb.RowMask && slices.Equal(sa.Rows, sb.Rows)
}

// TestRestoreEquivalenceNonzeroState is TestRestoreEquivalence on state
// the recorded ring never holds: a pipeline whose chips carry distinct
// nonzero weights and whose last stage writes SRAM between captures, to
// new words and over old ones. A restored run's first capture walks every
// chip in full, and every blob it captures must equal the straight run's
// delta-chain blob. Each decoded snapshot must also carry the chips'
// weights, so a weight layout that encode and decode get wrong the same
// way fails here too.
func TestRestoreEquivalenceNonzeroState(t *testing.T) {
	const (
		waves   = 12
		cadence = 1300
		last    = topo.TSPsPerNode - 1 // the stage that writes SRAM
	)
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := PipelinePrograms(sys, waves, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The last stage writes wave w to word w mod 3 instead of w, so the
	// delta chain must re-encode overwritten vectors, not only new ones.
	p := *progs[last]
	p.Streams[isa.MEM] = slices.Clone(p.Streams[isa.MEM])
	for k, in := range p.Streams[isa.MEM] {
		if in.Op == isa.Write {
			p.Streams[isa.MEM][k].C = in.C % 3
		}
	}
	progs[last] = &p
	build := func(workers int, weights bool) *Cluster {
		cl := newPipeline(t, sys, progs, waves, workers)
		if weights {
			// Every row is nonzero. The chip's own capture carries the
			// rest of its state (the bias register, stage 0's inputs)
			// through SetState unchanged.
			for c := 0; c < topo.TSPsPerNode; c++ {
				var st tsp.ChipState
				cl.Chip(c).CaptureState(&st)
				st.RowMask = [3]uint64{^uint64(0), ^uint64(0), 1<<(tsp.WeightRows-128) - 1}
				st.Rows = make([][tsp.FloatLanes]float32, tsp.WeightRows)
				for r := range st.Rows {
					for j := range st.Rows[r] {
						st.Rows[r][j] = float32(1+(c+1)*(r+2)*(j+3)%97) / 1024
					}
				}
				cl.Chip(c).SetState(&st)
			}
		}
		cl.SetCheckpointCadence(cadence)
		return cl
	}

	var straight *Cluster
	var sFinish int64
	var sErr error
	sTrace, sMetrics := withRecorder(t, func(rec *obs.Recorder) {
		straight = build(1, true)
		straight.SetRecorder(rec)
		sFinish, sErr = straight.Run()
	})
	if sErr != nil {
		t.Fatal(sErr)
	}
	store := append([]Stored(nil), straight.Checkpoints()...)
	if len(store) < 3 {
		t.Fatalf("%d captures, want at least 3", len(store))
	}
	addrs := []mem.Addr{{Offset: 0}, {Offset: 1}, {Offset: 2}}
	var lastMem [][]mem.VectorState // the last stage's SRAM at each capture
	for i, st := range store {
		snap, err := checkpoint.Decode(st.Blob)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		for c := range snap.Chips {
			ch := tsp.New(c, &isa.Program{}, nil)
			ch.SetState(&snap.Chips[c])
			if !sameWeights(ch, straight.Chip(c)) {
				t.Fatalf("checkpoint %d: chip %d weights differ from the chip's", i, c)
			}
		}
		lastMem = append(lastMem, snap.Chips[last].Mem.Vectors)
		for _, workers := range []int{1, 2} {
			var restored *Cluster
			var rFinish int64
			var rErr error
			rTrace, rMetrics := withRecorder(t, func(rec *obs.Recorder) {
				rec.LoadState(snap.Obs)
				restored = build(workers, false)
				restored.SetRecorder(rec)
				if err := restored.RestoreSnapshot(snap); err != nil {
					t.Fatalf("restore checkpoint %d: %v", i, err)
				}
				restored.SeedCheckpoints(store[:i+1])
				rFinish, rErr = restored.Run()
			})
			label := fmt.Sprintf("ckpt%d/w%d", i, workers)
			assertSameResult(t, label, straight, restored, sFinish, rFinish, sErr, rErr, addrs)
			if rTrace != sTrace || rMetrics != sMetrics {
				t.Errorf("%s: trace or metrics dump differs from the straight run", label)
			}
			got := restored.Checkpoints()
			if len(got) != len(store) {
				t.Fatalf("%s: %d checkpoints after restore, straight run has %d", label, len(got), len(store))
			}
			for j := i + 1; j < len(store); j++ {
				if !bytes.Equal(got[j].Blob, store[j].Blob) {
					t.Errorf("%s: checkpoint %d blob differs from the straight run's", label, j)
				}
			}
		}
	}
	// The test needs an overwrite between two captures: the same words
	// resident in both, holding different bytes.
	overwritten := false
	for i := 1; i < len(lastMem); i++ {
		a, b := lastMem[i-1], lastMem[i]
		overwritten = overwritten || len(a) == len(b) && len(a) > 0 && !reflect.DeepEqual(a, b)
	}
	if !overwritten {
		t.Error("no capture saw an overwritten SRAM vector")
	}
}
