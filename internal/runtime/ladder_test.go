package runtime

import (
	"math"
	"strings"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// ladderScenario is the end-to-end §4.5 exercise: 16 logical devices on a
// 3-node system (node 2 spared), running node-local ring all-reduces, with
// a mid-run link flap in attempt 1's window and a node-1 death in attempt
// 2's window. The full ladder must walk: MBEs detected → link repaired and
// replayed → heartbeat death detected → failover to the spare → clean run
// on the remapped TSPs with correct functional output.
type ladderScenario struct {
	sys     *topo.System
	alloc   *Allocation
	ladder  *Ladder
	rounds  int
	workers int
	// progs is generated once and placed by every attempt's build, so
	// every rung runs the same program objects.
	progs []*isa.Program
}

const ladderDevices = 2 * topo.TSPsPerNode

func newLadderScenario(t *testing.T, workers int, rec *obs.Recorder) *ladderScenario {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocation(sys, ladderDevices)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 7
	// The ring link chip 0 → chip 1 (used by every round's first send).
	flapLink := ringLink(t, sys, 0, 1)
	// Attempt 1 occupies wall cycles [0, ~5045): the flap swallows the
	// round-2 send at cycle 1440. The node death at 9000 lands inside
	// attempt 2's re-based window.
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Until: 2000, Kind: faultplan.LinkFlap, Link: flapLink},
		{Cycle: 9000, Kind: faultplan.NodeDeath, Node: 1},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ladderScenario{sys: sys, alloc: alloc, rounds: rounds, workers: workers}
	sc.ladder = &Ladder{
		Sys:          sys,
		Alloc:        alloc,
		Plan:         compiled,
		Monitor:      faultplan.NewMonitor(4, 650),
		Build:        sc.build,
		MaxReplays:   4,
		MaxFailovers: 2,
		Seed:         7,
		Recorder:     rec,
	}
	return sc
}

// build places the node-local ring programs on the allocation's current
// physical TSPs. The generator is position-local and the spare preserves
// each device's local index, so after a failover the moved devices form
// the same ring on the spare node's chips.
func (sc *ladderScenario) build(a *Allocation) (*Cluster, error) {
	if sc.progs == nil {
		progs, err := RingAllReducePrograms(sc.sys, sc.rounds, 0)
		if err != nil {
			return nil, err
		}
		sc.progs = progs
	}
	placed := make([]*isa.Program, sc.sys.NumTSPs())
	for d := 0; d < a.Devices(); d++ {
		t := a.TSPOf(d)
		placed[t] = sc.progs[t]
	}
	cl, err := New(sc.sys, placed)
	if err != nil {
		return nil, err
	}
	cl.SetWorkers(sc.workers)
	for d := 0; d < a.Devices(); d++ {
		v := tsp.VectorOf(contribution(d))
		chip := cl.Chip(int(a.TSPOf(d)))
		chip.SetStream(RingCur, v)
		chip.SetStream(RingAcc, v)
	}
	return cl, nil
}

// checkResult verifies the functional output: each group of 8 devices
// (one logical node) holds the elementwise sum of its contributions on
// whatever physical chips now serve it.
func (sc *ladderScenario) checkResult(t *testing.T, res *LadderResult) {
	t.Helper()
	for d := 0; d < ladderDevices; d++ {
		group := d / topo.TSPsPerNode
		want := make([]float32, 4)
		for l := 0; l < topo.TSPsPerNode; l++ {
			for i, x := range contribution(group*topo.TSPsPerNode + l) {
				want[i] += x
			}
		}
		got := res.Cluster.Chip(int(sc.alloc.TSPOf(d))).StreamFloats(RingAcc)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("device %d lane %d = %f, want %f", d, i, got[i], want[i])
			}
		}
	}
}

// TestLadderEndToEndFaultRecovery walks the whole ladder under the
// sequential executor and checks every rung left its mark.
func TestLadderEndToEndFaultRecovery(t *testing.T) {
	var res *LadderResult
	var err error
	var sc *ladderScenario
	_, metrics := withRecorder(t, func(rec *obs.Recorder) {
		sc = newLadderScenario(t, 1, rec)
		res, err = sc.ladder.Run()
	})
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	if res.Attempts != 3 || res.Replays != 2 || res.Failovers != 1 {
		t.Errorf("attempts/replays/failovers = %d/%d/%d, want 3/2/1", res.Attempts, res.Replays, res.Failovers)
	}
	if len(res.RepairedLinks) != 1 {
		t.Errorf("RepairedLinks = %v, want the flapped link", res.RepairedLinks)
	}
	if len(res.FailedNodes) != 1 || res.FailedNodes[0] != 1 {
		t.Errorf("FailedNodes = %v, want [1]", res.FailedNodes)
	}
	if len(sc.alloc.spares) != 0 {
		t.Errorf("spare should be consumed, %v remain", sc.alloc.spares)
	}
	if res.Base == 0 {
		t.Error("successful attempt should be re-based after the failures")
	}
	sc.checkResult(t, res)
	// Every rung's counters must be present in the dump.
	for _, key := range []string{
		`"fault.injected{kind=link-flap}":1`,
		`"fault.injected{kind=node-death}":`,
		`"recovery.link_repairs":1`,
		`"recovery.replays":2`,
		`"recovery.failovers":1`,
		`"hac.recharacterizations":1`,
		`"runtime.spare_failovers":1`,
		`"runtime.devices_remapped":8`,
	} {
		if !strings.Contains(metrics, key) {
			t.Errorf("metrics dump missing %s", key)
		}
	}
}

// TestLadderFaultWorkerInvariance runs the identical fault scenario at
// several worker counts: finish cycles, ladder accounting, functional state, and
// the raw full dumps must be byte-identical — the headline invariant, now including failures.
func TestLadderFaultWorkerInvariance(t *testing.T) {
	type outcome struct {
		res     *LadderResult
		sc      *ladderScenario
		trace   string
		metrics string
	}
	run := func(workers int) outcome {
		var o outcome
		o.trace, o.metrics = withRecorder(t, func(rec *obs.Recorder) {
			o.sc = newLadderScenario(t, workers, rec)
			res, err := o.sc.ladder.Run()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			o.res = res
		})
		return o
	}
	base := run(1)
	base.sc.checkResult(t, base.res)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.res.Finish != base.res.Finish || got.res.Base != base.res.Base {
			t.Errorf("workers=%d: finish/base %d/%d != %d/%d",
				w, got.res.Finish, got.res.Base, base.res.Finish, base.res.Base)
		}
		if got.res.Attempts != base.res.Attempts || got.res.Replays != base.res.Replays ||
			got.res.Failovers != base.res.Failovers {
			t.Errorf("workers=%d: ladder walk differs: %+v vs %+v", w, got.res, base.res)
		}
		got.sc.checkResult(t, got.res)
		for c := 0; c < base.sc.sys.NumTSPs(); c++ {
			if base.res.Cluster.Chip(c).Streams() != got.res.Cluster.Chip(c).Streams() {
				t.Errorf("workers=%d: chip %d stream file differs", w, c)
			}
		}
		if base.metrics != got.metrics {
			t.Errorf("workers=%d: metrics dumps differ", w)
		}
		if base.trace != got.trace {
			t.Errorf("workers=%d: trace dumps differ", w)
		}
	}
}

// TestLadderSpareExhaustionSurfaces: with a fault plan that kills two
// nodes and only one spare, the ladder must fail over once, then surface
// the allocation's exhaustion instead of looping.
func TestLadderSpareExhaustionSurfaces(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewAllocation(sys, ladderDevices)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faultplan.Plan{Events: []faultplan.Event{
		{Cycle: 1000, Kind: faultplan.NodeDeath, Node: 0},
		{Cycle: 1000, Kind: faultplan.NodeDeath, Node: 1},
	}}
	compiled, err := plan.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	sc := &ladderScenario{sys: sys, alloc: alloc, rounds: 3, workers: 1}
	sc.ladder = &Ladder{
		Sys: sys, Alloc: alloc, Plan: compiled,
		Monitor: faultplan.NewMonitor(4, 650),
		Build:   sc.build, MaxReplays: 3, MaxFailovers: 3, Seed: 7,
	}
	_, err = sc.ladder.Run()
	if err == nil {
		t.Fatal("expected spare exhaustion")
	}
	if !strings.Contains(err.Error(), "no spare remaining") && !strings.Contains(err.Error(), "failover") {
		t.Errorf("unexpected error: %v", err)
	}
}
