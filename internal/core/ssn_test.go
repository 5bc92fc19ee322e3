package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

func node8(t *testing.T) *topo.System {
	t.Helper()
	s, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScheduleSingleTransfer(t *testing.T) {
	sys := node8(t)
	cs, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(cs.Slots) != 10 {
		t.Fatalf("slots = %d", len(cs.Slots))
	}
	tr := cs.Transfers[0]
	if tr.Depart != 0 {
		t.Fatalf("depart = %d", tr.Depart)
	}
	// 10 vectors fit under the non-minimal crossover: single path,
	// back-to-back slots, arrival = hop + 9 slots... last departs at
	// 9*Slot, arrives HopCycles later.
	want := int64(9*route.SlotCycles + route.HopCycles)
	if tr.Arrival != want {
		t.Fatalf("arrival = %d, want %d", tr.Arrival, want)
	}
	if cs.Makespan != want {
		t.Fatal("makespan mismatch")
	}
}

func TestScheduleSpreadsLargeTensor(t *testing.T) {
	sys := node8(t)
	cs, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 7, Vectors: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}
	// Spread across 1 minimal + 6 non-minimal routes beats minimal-only.
	minOnly := route.PathCompletionCycles(1, 1000)
	if cs.Makespan >= minOnly {
		t.Fatalf("spread makespan %d not better than minimal-only %d", cs.Makespan, minOnly)
	}
	paths := map[string]bool{}
	for _, s := range cs.Slots {
		paths[pathKey(s.Route.Links)] = true
	}
	if len(paths) < 5 {
		t.Fatalf("only %d distinct paths used", len(paths))
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	sys := node8(t)
	cs, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 5},
		{ID: 1, Src: 1, Dst: 2, Vectors: 5, After: []TransferID{0}},
		{ID: 2, Src: 2, Dst: 3, Vectors: 5, After: []TransferID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}
	byID := map[TransferID]ScheduledTransfer{}
	for _, tr := range cs.Transfers {
		byID[tr.ID] = tr
	}
	if byID[1].Depart < byID[0].Arrival {
		t.Fatal("transfer 1 departed before its dependency arrived")
	}
	if byID[2].Depart < byID[1].Arrival {
		t.Fatal("transfer 2 departed before its dependency arrived")
	}
}

func TestScheduleDependencyOrderIndependence(t *testing.T) {
	// The task list order must not matter — only the DAG does.
	sys := node8(t)
	forward := []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 5},
		{ID: 1, Src: 1, Dst: 2, Vectors: 5, After: []TransferID{0}},
	}
	backward := []Transfer{forward[1], forward[0]}
	cs1, err1 := ScheduleTransfers(sys, forward)
	cs2, err2 := ScheduleTransfers(sys, backward)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if cs1.Makespan != cs2.Makespan {
		t.Fatalf("makespans differ: %d vs %d", cs1.Makespan, cs2.Makespan)
	}
}

func TestScheduleContentionSerialized(t *testing.T) {
	sys := node8(t)
	// Two transfers to the same destination share no links in a fully
	// connected node, so force sharing: same src and dst.
	cs, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 20},
		{ID: 1, Src: 0, Dst: 1, Vectors: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleErrors(t *testing.T) {
	sys := node8(t)
	if _, err := ScheduleTransfers(sys, []Transfer{{ID: 0, Src: 0, Dst: 1, Vectors: 0}}); err == nil {
		t.Fatal("zero vectors should error")
	}
	if _, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 1, After: []TransferID{1}},
		{ID: 1, Src: 1, Dst: 2, Vectors: 1, After: []TransferID{0}},
	}); err == nil {
		t.Fatal("dependency cycle should error")
	}
	if _, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 1, After: []TransferID{42}},
	}); err == nil {
		t.Fatal("unknown dependency should error")
	}
	if _, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 1},
		{ID: 0, Src: 1, Dst: 2, Vectors: 1},
	}); err == nil {
		t.Fatal("duplicate ids should error")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sys := node8(t)
	tasks := []Transfer{
		{ID: 0, Src: 0, Dst: 3, Vectors: 100},
		{ID: 1, Src: 1, Dst: 3, Vectors: 100},
		{ID: 2, Src: 2, Dst: 3, Vectors: 50, After: []TransferID{0}},
	}
	cs1, _ := ScheduleTransfers(sys, tasks)
	cs2, _ := ScheduleTransfers(sys, tasks)
	if len(cs1.Slots) != len(cs2.Slots) {
		t.Fatal("slot counts differ")
	}
	for i := range cs1.Slots {
		if cs1.Slots[i].Depart != cs2.Slots[i].Depart ||
			cs1.Slots[i].Arrival != cs2.Slots[i].Arrival {
			t.Fatal("schedules differ between identical compiles")
		}
	}
}

func TestLinkUtilization(t *testing.T) {
	sys := node8(t)
	cs, err := ScheduleTransfers(sys, []Transfer{
		{ID: 0, Src: 0, Dst: 1, Vectors: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every slot occupies each link of its route for one slot time; no
	// link may be busy for longer than the schedule's makespan.
	busy := map[topo.LinkID]int64{}
	for _, s := range cs.Slots {
		for _, l := range s.Route.Links {
			busy[l] += route.SlotCycles
		}
	}
	if len(busy) == 0 {
		t.Fatal("no link carried traffic")
	}
	for l, b := range busy {
		if b > cs.Makespan {
			t.Fatalf("link %d busy %d cycles, longer than the %d-cycle makespan", l, b, cs.Makespan)
		}
	}
}

func TestCompileGraphPipeline(t *testing.T) {
	sys := node8(t)
	g := graph.New()
	in := g.AddInput("x", 320*4)
	_, t0 := g.AddOp("stage0", 0, 1000, []graph.TensorID{in}, 320*4)
	_, t1 := g.AddOp("stage1", 1, 1000, []graph.TensorID{t0}, 320*4)
	g.AddOp("stage2", 2, 1000, []graph.TensorID{t1}, 320*2)

	os, err := CompileGraph(sys, g, func(d int) topo.TSPID { return topo.TSPID(d) })
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Comms.Verify(); err != nil {
		t.Fatal(err)
	}
	// Stage starts are strictly ordered: compute + transfer each hop.
	if !(os.Starts[0] < os.Starts[1] && os.Starts[1] < os.Starts[2]) {
		t.Fatalf("starts = %v", os.Starts)
	}
	// Stage1 cannot start before stage0's output arrives.
	if os.Starts[1] < os.Finish[0] {
		t.Fatal("stage1 started before its input was produced")
	}
	// Communication adds at least a hop latency between stages.
	if os.Starts[1] < os.Finish[0]+route.HopCycles {
		t.Fatal("transfer latency missing from schedule")
	}
	if os.Makespan < os.Finish[2] {
		t.Fatal("makespan too small")
	}
	if os.DeviceBusy[0] != 1000 || os.DeviceBusy[2] != 1000 {
		t.Fatalf("device busy = %v", os.DeviceBusy)
	}
}

func TestCompileGraphSameDeviceNoComm(t *testing.T) {
	sys := node8(t)
	g := graph.New()
	in := g.AddInput("x", 320)
	_, t0 := g.AddOp("a", 0, 100, []graph.TensorID{in}, 320)
	g.AddOp("b", 0, 100, []graph.TensorID{t0}, -1)
	os, err := CompileGraph(sys, g, func(d int) topo.TSPID { return topo.TSPID(d) })
	if err != nil {
		t.Fatal(err)
	}
	if len(os.Comms.Slots) != 0 {
		t.Fatal("same-device graph should move nothing")
	}
	if os.Starts[1] != os.Finish[0] {
		t.Fatal("back-to-back ops should chain without gaps")
	}
	if os.Makespan != 200 {
		t.Fatalf("makespan = %d, want 200", os.Makespan)
	}
}

func TestCompileGraphParallelDevices(t *testing.T) {
	sys := node8(t)
	g := graph.New()
	in := g.AddInput("x", 320)
	// Two independent chains on different devices run concurrently.
	_, a0 := g.AddOp("a0", 0, 1000, []graph.TensorID{in}, 320)
	g.AddOp("a1", 0, 1000, []graph.TensorID{a0}, -1)
	_, b0 := g.AddOp("b0", 1, 1000, []graph.TensorID{in}, 320)
	g.AddOp("b1", 1, 1000, []graph.TensorID{b0}, -1)
	os, err := CompileGraph(sys, g, func(d int) topo.TSPID { return topo.TSPID(d) })
	if err != nil {
		t.Fatal(err)
	}
	if os.Makespan != 2000 {
		t.Fatalf("parallel chains makespan = %d, want 2000", os.Makespan)
	}
}

func TestVerifyCatchesCorruptedSchedule(t *testing.T) {
	sys := node8(t)
	cs, err := ScheduleTransfers(sys, []Transfer{{ID: 0, Src: 0, Dst: 1, Vectors: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: make two vectors depart in the same slot.
	cs.Slots[1].Depart = cs.Slots[0].Depart
	cs.Slots[1].Arrival = cs.Slots[0].Arrival
	if err := cs.Verify(); err == nil {
		t.Fatal("verifier missed a slot overlap")
	}
	// Tamper arrival consistency.
	cs2, _ := ScheduleTransfers(sys, []Transfer{{ID: 0, Src: 0, Dst: 1, Vectors: 1}})
	cs2.Slots[0].Arrival += 5
	if err := cs2.Verify(); err == nil {
		t.Fatal("verifier missed a bad arrival")
	}
}
