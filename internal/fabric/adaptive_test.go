package fabric

import (
	"testing"

	"repro/internal/route"
	"repro/internal/topo"
)

func TestAdaptiveUncontendedStaysMinimal(t *testing.T) {
	sys := node8(t)
	a := NewAdaptive(sys, 1, 4*route.SlotCycles)
	a.Inject(0, 0, 1, 100)
	dels := a.Run()
	if len(dels) != 1 {
		t.Fatal("delivery count")
	}
	// Uncontended: minimal 1-hop latency.
	if want := int64(100 + route.HopCycles); dels[0].Arrival != want {
		t.Fatalf("arrival = %d, want %d", dels[0].Arrival, want)
	}
}

func TestAdaptiveDetoursUnderCongestion(t *testing.T) {
	sys := node8(t)
	a := NewAdaptive(sys, 2, 2*route.SlotCycles)
	// Saturate the 0→1 link: many vectors injected at the same cycle.
	for v := 0; v < 40; v++ {
		a.Inject(v, 0, 1, 0)
	}
	dels := a.Run()
	// Detoured vectors arrive with 2-hop latency; minimal ones 1-hop.
	detoured, direct := 0, 0
	for _, d := range dels {
		queueing := d.Arrival - d.Depart
		if queueing >= 2*route.HopCycles {
			detoured++
		} else {
			direct++
		}
	}
	if detoured == 0 {
		t.Fatal("expected some detours under saturation")
	}
	if direct == 0 {
		t.Fatal("expected some minimal deliveries")
	}
}

// TestAdaptiveReordersSSNDoesNot demonstrates §4.3's reordering point:
// adaptive routing delivers a flow's vectors out of order, while SSN's
// deterministic spreading preserves the compile-time total order exactly.
func TestAdaptiveReordersSSNDoesNot(t *testing.T) {
	sys := node8(t)
	a := NewAdaptive(sys, 3, 2*route.SlotCycles)
	for v := 0; v < 60; v++ {
		a.Inject(v, 0, 1, int64(v)*2) // faster than the link drains
	}
	reorders := ReorderCount(a.Run())
	if reorders == 0 {
		t.Fatal("adaptive routing under load should reorder")
	}

	// SSN: vectors of the same tensor, spread or not, are delivered in
	// the order the schedule says — verify with the scheduler.
	s := NewScheduled()
	r := directRoute(t, sys, 0, 1)
	last := int64(-1)
	for v := 0; v < 60; v++ {
		slot := s.NextFreeSlot(r, int64(v)*2)
		arrival, err := s.ScheduleVector(r, slot)
		if err != nil {
			t.Fatal(err)
		}
		if arrival <= last {
			t.Fatalf("SSN delivered vector %d at %d, not after vector %d at %d", v, arrival, v-1, last)
		}
		last = arrival
	}
}

func TestAdaptiveThroughputBeatsPureFIFOUnderHotspot(t *testing.T) {
	sys := node8(t)
	const vectors = 80
	// Pure FIFO (Dynamic) on one link.
	d := NewDynamic(sys, 4)
	link := directRoute(t, sys, 0, 1)
	for v := 0; v < vectors; v++ {
		d.Inject(v, link, 0)
	}
	var fifoLast int64
	for _, del := range d.Run() {
		if del.Arrival > fifoLast {
			fifoLast = del.Arrival
		}
	}
	// Adaptive spreads the hotspot across detours.
	a := NewAdaptive(sys, 5, 2*route.SlotCycles)
	for v := 0; v < vectors; v++ {
		a.Inject(v, 0, 1, 0)
	}
	var adaptLast int64
	for _, del := range a.Run() {
		if del.Arrival > adaptLast {
			adaptLast = del.Arrival
		}
	}
	if adaptLast >= fifoLast {
		t.Fatalf("adaptive (%d) should beat FIFO (%d) on a hotspot", adaptLast, fifoLast)
	}
}

func TestAdaptiveNonAdjacentPanics(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-adjacent endpoints")
		}
	}()
	NewAdaptive(sys, 0, 10).Inject(0, 0, 15, 0)
}

func TestReorderCountBasics(t *testing.T) {
	mk := func(ids ...int) []Delivery {
		out := make([]Delivery, len(ids))
		for i, id := range ids {
			out[i] = Delivery{VectorID: id, Src: 0, Dst: 1}
		}
		return out
	}
	if ReorderCount(mk(0, 1, 2, 3)) != 0 {
		t.Fatal("in-order flow misflagged")
	}
	if ReorderCount(mk(0, 2, 1, 3)) != 1 {
		t.Fatal("single inversion missed")
	}
}
