package runtime

import (
	"testing"

	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/topo"
)

// newBurstScenario is a two-fault replay walk at a fixed checkpoint
// cadence: the first flap swallows the round-1 send before
// any clean snapshot exists, so the replay re-bases to cycle 0; the
// second flap lands inside the re-based attempt's wall window (base
// 7834, round-4 send at wall 10714), so the ladder diagnoses two faults
// at two distinct horizons.
func newBurstScenario(t *testing.T, workers int, rec *obs.Recorder) *ladderScenario {
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
		{Cycle: 0, Until: 700, Kind: faultplan.LinkFlap, Link: ringLink(t, sys, 0, 1)},
		{Cycle: 10634, Until: 10834, Kind: faultplan.LinkFlap, Link: ringLink(t, sys, 1, 2)},
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
		CheckpointEvery: 650,
		Recorder:        rec,
	}
	return sc
}

// TestLadderBurstWalk: two faults at two horizons replay twice; the
// first replay re-bases to cycle 0 (no clean snapshot precedes the
// first flap), the second resumes from a snapshot, the functional result
// is right, and the whole walk is byte-identical across worker counts.
func TestLadderBurstWalk(t *testing.T) {
	run := func(workers int) (*LadderResult, string, string) {
		var res *LadderResult
		trace, metrics := withRecorder(t, func(rec *obs.Recorder) {
			sc := newBurstScenario(t, workers, rec)
			var err error
			res, err = sc.ladder.Run()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sc.checkResult(t, res)
		})
		return res, trace, metrics
	}
	res, trace, metrics := run(1)
	if res.Replays != 2 || res.Resumes != 1 || res.Failovers != 0 {
		t.Fatalf("replays/resumes/failovers = %d/%d/%d, want 2/1/0", res.Replays, res.Resumes, res.Failovers)
	}
	for _, w := range []int{2, 8} {
		resW, traceW, metricsW := run(w)
		if resW.Finish != res.Finish || resW.Base != res.Base || resW.Resumes != res.Resumes {
			t.Errorf("workers=%d: finish/base/resumes %d/%d/%d != %d/%d/%d",
				w, resW.Finish, resW.Base, resW.Resumes, res.Finish, res.Base, res.Resumes)
		}
		if traceW != trace {
			t.Errorf("workers=%d: trace dump differs", w)
		}
		if metricsW != metrics {
			t.Errorf("workers=%d: metrics dump differs", w)
		}
	}
}
