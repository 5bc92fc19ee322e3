package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/route"
	"repro/internal/stats"
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

func directRoute(t *testing.T, sys *topo.System, a, b topo.TSPID) []topo.LinkID {
	t.Helper()
	links := sys.Between(a, b)
	if len(links) == 0 {
		t.Fatalf("no link %d→%d", a, b)
	}
	return []topo.LinkID{links[0]}
}

func TestScheduledDeterministicArrival(t *testing.T) {
	sys := node8(t)
	s := NewScheduled()
	r := directRoute(t, sys, 0, 1)
	arr, err := s.ScheduleVector(r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100 + route.HopCycles); arr != want {
		t.Fatalf("arrival = %d, want %d", arr, want)
	}
}

func TestScheduledSlotConflictRejected(t *testing.T) {
	sys := node8(t)
	s := NewScheduled()
	r := directRoute(t, sys, 0, 1)
	if _, err := s.ScheduleVector(r, 100); err != nil {
		t.Fatal(err)
	}
	// Same slot: conflict.
	if _, err := s.ScheduleVector(r, 100); err == nil {
		t.Fatal("duplicate slot must be rejected")
	}
	// Overlapping slot (within SlotCycles): conflict.
	if _, err := s.ScheduleVector(r, 100+route.SlotCycles-1); err == nil {
		t.Fatal("overlapping slot must be rejected")
	}
	// Next full slot: fine.
	if _, err := s.ScheduleVector(r, 100+route.SlotCycles); err != nil {
		t.Fatalf("adjacent slot should fit: %v", err)
	}
	// Earlier non-overlapping slot: fine (reservations are a set, not a
	// cursor).
	if _, err := s.ScheduleVector(r, 100-route.SlotCycles); err != nil {
		t.Fatalf("earlier slot should fit: %v", err)
	}
}

func TestScheduledMultiHopRollback(t *testing.T) {
	sys := node8(t)
	s := NewScheduled()
	// Occupy the second hop of a 0→3→7 route at the exact arrival slot.
	hop2 := directRoute(t, sys, 3, 7)
	if _, err := s.ScheduleVector(hop2, 100+route.HopCycles); err != nil {
		t.Fatal(err)
	}
	twoHop := append(directRoute(t, sys, 0, 3), hop2...)
	if _, err := s.ScheduleVector(twoHop, 100); err == nil {
		t.Fatal("second-hop conflict must fail the whole route")
	}
	// The first hop must have been rolled back: reusing its slot works.
	if _, err := s.ScheduleVector(directRoute(t, sys, 0, 3), 100); err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
	reserved := 0
	for _, slots := range s.slots {
		reserved += len(slots)
	}
	if reserved != 2 {
		t.Fatalf("reservations = %d, want 2", reserved)
	}
}

func TestScheduledVirtualCutThroughTiming(t *testing.T) {
	sys := node8(t)
	s := NewScheduled()
	links := append(directRoute(t, sys, 0, 3), directRoute(t, sys, 3, 7)...)
	arr, err := s.ScheduleVector(links, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * route.HopCycles); arr != want {
		t.Fatalf("2-hop arrival = %d, want %d", arr, want)
	}
}

func TestNextFreeSlotSkipsReservations(t *testing.T) {
	sys := node8(t)
	s := NewScheduled()
	r := directRoute(t, sys, 0, 1)
	for i := 0; i < 10; i++ {
		if _, err := s.ScheduleVector(r, int64(i)*route.SlotCycles); err != nil {
			t.Fatal(err)
		}
	}
	free := s.NextFreeSlot(r, 0)
	if free != 10*route.SlotCycles {
		t.Fatalf("next free = %d, want %d", free, 10*route.SlotCycles)
	}
	if _, err := s.ScheduleVector(r, free); err != nil {
		t.Fatalf("NextFreeSlot returned an unschedulable slot: %v", err)
	}
}

func TestScheduledEmptyRouteErrors(t *testing.T) {
	s := NewScheduled()
	if _, err := s.ScheduleVector(nil, 0); err == nil {
		t.Fatal("empty route must error")
	}
}

func TestDynamicUncontendedMatchesScheduled(t *testing.T) {
	sys := node8(t)
	d := NewDynamic(sys, 1)
	r := directRoute(t, sys, 0, 1)
	d.Inject(1, r, 50)
	dels := d.Run()
	if len(dels) != 1 {
		t.Fatal("delivery count")
	}
	if want := int64(50 + route.HopCycles); dels[0].Arrival != want {
		t.Fatalf("uncontended dynamic arrival = %d, want %d", dels[0].Arrival, want)
	}
}

func TestDynamicContentionQueues(t *testing.T) {
	sys := node8(t)
	d := NewDynamic(sys, 2)
	r := directRoute(t, sys, 0, 1)
	// Two vectors demand the same link in the same cycle: one queues.
	d.Inject(1, r, 100)
	d.Inject(2, r, 100)
	dels := d.Run()
	a0, a1 := dels[0].Arrival, dels[1].Arrival
	if a0 == a1 {
		t.Fatal("contending vectors cannot both win the slot")
	}
	diff := a1 - a0
	if diff < 0 {
		diff = -diff
	}
	if diff != route.SlotCycles {
		t.Fatalf("loser delayed by %d, want one slot (%d)", diff, route.SlotCycles)
	}
}

// TestFig8VarianceComparison is the heart of the paper's argument: under
// contention, the conventional network's arrival times vary run to run
// (arbitration races), while SSN arrivals are identical in every run.
func TestFig8VarianceComparison(t *testing.T) {
	sys := node8(t)
	// Traffic mirroring Fig 8: flow A routes 0→1→3 (transit through TSP
	// 1) while flow B injects 1→3 locally. Both contend for link 1→3,
	// and injection times are arranged so A's transit vectors arrive at
	// TSP 1 on exactly the cycle B wants the link — an arbitration race.
	routeA := append(directRoute(t, sys, 0, 1), directRoute(t, sys, 1, 3)...)
	routeB := directRoute(t, sys, 1, 3)
	const vecsPerFlow = 50
	const gap = 2 * route.SlotCycles

	// Dynamic: a given vector's arrival varies across seeds (runs).
	arrivalOfB25 := stats.NewSummary()
	for seed := uint64(0); seed < 20; seed++ {
		d := NewDynamic(sys, seed)
		for v := 0; v < vecsPerFlow; v++ {
			d.Inject(v, routeA, int64(v)*gap)
			d.Inject(100+v, routeB, int64(v)*gap+route.HopCycles)
		}
		for _, del := range d.Run() {
			if del.VectorID == 125 {
				arrivalOfB25.Add(float64(del.Arrival))
			}
		}
	}
	if arrivalOfB25.Std() == 0 {
		t.Fatal("dynamic network should show arrival variance under contention")
	}

	// Scheduled: the compiler serializes the contending flows into
	// distinct slots; arrivals are identical across "runs" by
	// construction (same schedule → same reservation table).
	runSSN := func() []int64 {
		s := NewScheduled()
		var arrivals []int64
		for v := 0; v < vecsPerFlow; v++ {
			slotA := s.NextFreeSlot(routeA, int64(v)*gap)
			a, err := s.ScheduleVector(routeA, slotA)
			if err != nil {
				t.Fatal(err)
			}
			slotB := s.NextFreeSlot(routeB, int64(v)*gap+route.HopCycles)
			b, err := s.ScheduleVector(routeB, slotB)
			if err != nil {
				t.Fatal(err)
			}
			arrivals = append(arrivals, a, b)
		}
		return arrivals
	}
	d1, d2 := runSSN(), runSSN()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("SSN deliveries differ between runs")
		}
	}
}

func TestDynamicDeterministicGivenSeed(t *testing.T) {
	sys := node8(t)
	run := func() []Delivery {
		d := NewDynamic(sys, 7)
		r := directRoute(t, sys, 0, 1)
		for v := 0; v < 20; v++ {
			d.Inject(v, r, 0)
		}
		return d.Run()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed dynamic runs must agree (simulator determinism)")
		}
	}
}

func TestDynamicEmptyRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewDynamic(node8(t), 0).Inject(0, nil, 0)
}

// TestDeliveriesPinned hashes every Delivery of seeded, contended runs of
// both dynamic baselines: Dynamic on the Fig 8 contention routes, and
// Adaptive at detour thresholds of 0–3 slots with detours taken. Any
// change to the event loop, the arbitration-tie draws or the detour draw
// moves a hash.
func TestDeliveriesPinned(t *testing.T) {
	sys := node8(t)
	hashOf := func(h hash.Hash, seed uint64, dels []Delivery) {
		fmt.Fprintf(h, "seed %d n %d\n", seed, len(dels))
		for _, d := range dels {
			fmt.Fprintf(h, "%d %d %d %d %d\n", d.VectorID, d.Src, d.Dst, d.Depart, d.Arrival)
		}
	}

	dyn := sha256.New()
	routeA := append(directRoute(t, sys, 0, 1), directRoute(t, sys, 1, 3)...)
	routeB := directRoute(t, sys, 1, 3)
	for seed := uint64(0); seed < 8; seed++ {
		d := NewDynamic(sys, seed)
		for v := 0; v < 50; v++ {
			d.Inject(v, routeA, int64(v)*2*route.SlotCycles)
			d.Inject(100+v, routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
		}
		hashOf(dyn, seed, d.Run())
	}

	adp := sha256.New()
	for slots := int64(0); slots <= 3; slots++ {
		detours := 0
		for seed := uint64(1); seed <= 3; seed++ {
			a := NewAdaptive(sys, seed, slots*route.SlotCycles)
			for v := 0; v < 40; v++ {
				a.Inject(v, 0, 1, int64(v)*2)
				a.Inject(100+v, 2, 1, int64(v)*3)
			}
			dels := a.Run()
			for _, d := range dels {
				if d.Arrival-d.Depart >= 2*route.HopCycles {
					detours++
				}
			}
			hashOf(adp, seed, dels)
		}
		if detours == 0 {
			t.Fatalf("threshold %d slots: no detours taken", slots)
		}
	}

	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"dynamic", dyn, "e609d0e333bf25831fb1f3cf6b661f879e819dc288410b4ff9135a06f78573df"},
		{"adaptive", adp, "0633250a076efe6da19362ba7d61a95e0dc32a1c4db8050137ff267b7a2405b2"},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.want {
			t.Errorf("%s deliveries hash = %s, want %s", c.name, got, c.want)
		}
	}
}
