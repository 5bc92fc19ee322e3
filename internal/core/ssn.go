// Package core implements the paper's primary contribution: the
// software-scheduled network (SSN) compiler of §4.
//
// Given the static computation graph (what must move, between which TSPs,
// after which producers) and the constructed Dragonfly topology, the
// scheduler resolves — entirely at compile time — everything a
// conventional network decides in hardware at run time:
//
//   - Routing (§4.2 "scheduled, not routed"): every vector's hop-by-hop
//     path is chosen here; there are no routing tables in the fabric.
//   - Load balancing (§4.3): tensors above the non-minimal crossover are
//     deterministically spread across minimal and non-minimal paths.
//   - Flow control (§4.4): every vector gets an exclusive departure slot
//     on every link of its path, so the transmitter can never overflow
//     and the receiver can never underflow; there is no back-pressure
//     and no arbitration to introduce latency variance.
//
// The output is a total order of vectors over every link, which is what
// lets programs reason about global-memory consistency without locks
// (§5.3): a consumer instruction is simply scheduled after its producer's
// arrival cycle.
package core

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
)

// TransferID identifies one tensor movement in a communication task list.
type TransferID int

// Transfer is one tensor that must move between two TSPs.
type Transfer struct {
	ID  TransferID
	Src topo.TSPID
	Dst topo.TSPID
	// Vectors is the tensor size in 320-byte flits.
	Vectors int
	// Earliest is the first cycle the tensor may depart (producer done).
	Earliest int64
	// After lists transfers whose completion gates this one.
	After []TransferID
	// MinimalOnly disables §4.3 non-minimal spreading for this tensor.
	// The compiler sets it for traffic patterns (e.g. all-to-all
	// collectives) that already load every link minimally, where detours
	// would only steal slots from other tensors.
	MinimalOnly bool
	// Intermediate, when non-nil, filters the TSPs this tensor's
	// detours may pass through; the compiler uses it to keep detours
	// off sibling senders converging on the same destination.
	Intermediate func(topo.TSPID) bool
	// SharedBy counts the transfers converging on this destination and
	// sharing its detour links' slots (0/1 = exclusive).
	SharedBy int
}

// VectorSlot is one scheduled vector: its route and exact timing.
type VectorSlot struct {
	Transfer TransferID
	Index    int
	Route    route.VectorRoute
	Depart   int64
	Arrival  int64
}

// ScheduledTransfer is a transfer with its resolved timing.
type ScheduledTransfer struct {
	Transfer
	// Depart is the first vector's departure; Arrival the last vector's
	// arrival — the tensor is fully resident at Dst at Arrival.
	Depart  int64
	Arrival int64
}

// CommSchedule is a compiled communication schedule.
type CommSchedule struct {
	Transfers []ScheduledTransfer
	Slots     []VectorSlot
	// Makespan is the cycle at which the last vector lands.
	Makespan int64
	// Fabric retains the reservation table for verification.
	Fabric *fabric.Scheduled
}

// ScheduleTransfers compiles a communication task list against the system
// topology. Transfers are processed in dependency (topological) order;
// within a transfer, vectors are spread per §4.3 and assigned the earliest
// conflict-free slots.
func ScheduleTransfers(sys *topo.System, transfers []Transfer) (*CommSchedule, error) {
	order, err := topoOrder(transfers)
	if err != nil {
		return nil, err
	}
	arrivals := make(map[TransferID]int64, len(transfers))
	net := fabric.NewScheduled()
	cs := &CommSchedule{Fabric: net}

	for _, idx := range order {
		tr := transfers[idx]
		if tr.Vectors <= 0 {
			return nil, fmt.Errorf("core: transfer %d has %d vectors", tr.ID, tr.Vectors)
		}
		ready := tr.Earliest
		for _, dep := range tr.After {
			a, ok := arrivals[dep]
			if !ok {
				return nil, fmt.Errorf("core: transfer %d depends on unknown %d", tr.ID, dep)
			}
			if a > ready {
				ready = a
			}
		}
		st, err := scheduleOne(sys, net, cs, tr, ready)
		if err != nil {
			return nil, fmt.Errorf("core: transfer %d: %w", tr.ID, err)
		}
		arrivals[tr.ID] = st.Arrival
	}
	return cs, nil
}

// pathKey builds a map key from a link sequence.
func pathKey(links []topo.LinkID) string {
	b := make([]byte, 0, len(links)*4)
	for _, l := range links {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// topoOrder returns indices of transfers in dependency order, or an error
// on a cycle.
func topoOrder(transfers []Transfer) ([]int, error) {
	index := make(map[TransferID]int, len(transfers))
	for i, tr := range transfers {
		if _, dup := index[tr.ID]; dup {
			return nil, fmt.Errorf("core: duplicate transfer id %d", tr.ID)
		}
		index[tr.ID] = i
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(transfers))
	var order []int
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case gray:
			return fmt.Errorf("core: dependency cycle through transfer %d", transfers[i].ID)
		case black:
			return nil
		}
		color[i] = gray
		for _, dep := range transfers[i].After {
			j, ok := index[dep]
			if !ok {
				return fmt.Errorf("core: transfer %d depends on unknown %d", transfers[i].ID, dep)
			}
			if err := visit(j); err != nil {
				return err
			}
		}
		color[i] = black
		order = append(order, i)
		return nil
	}
	for i := range transfers {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Verify re-checks the compiled schedule's legality invariants:
//
//  1. no two vectors overlap on any link slot (transmitter overflow);
//  2. every hop departs exactly when the previous hop's vector arrives
//     (virtual cut-through consistency);
//  3. every transfer departs at/after its dependencies' arrivals
//     (receiver underflow at the consumer).
//
// A nil error is the compile-time proof the paper's hardware relies on
// instead of back-pressure.
func (cs *CommSchedule) Verify() error {
	type occ struct {
		start int64
		id    int
	}
	byLink := map[topo.LinkID][]occ{}
	for _, s := range cs.Slots {
		t := s.Depart
		for _, l := range s.Route.Links {
			byLink[l] = append(byLink[l], occ{t, int(s.Transfer)<<20 | s.Index})
			t += route.HopCycles
		}
		if t != s.Arrival {
			return fmt.Errorf("core: vector %d/%d arrival %d inconsistent with hops (want %d)",
				s.Transfer, s.Index, s.Arrival, t)
		}
	}
	for l, occs := range byLink {
		sort.Slice(occs, func(i, j int) bool { return occs[i].start < occs[j].start })
		for i := 1; i < len(occs); i++ {
			if occs[i].start < occs[i-1].start+route.SlotCycles {
				return fmt.Errorf("core: link %d slot overlap at cycle %d", l, occs[i].start)
			}
		}
	}
	arrivals := map[TransferID]int64{}
	departs := map[TransferID]int64{}
	deps := map[TransferID][]TransferID{}
	for _, tr := range cs.Transfers {
		arrivals[tr.ID] = tr.Arrival
		departs[tr.ID] = tr.Depart
		deps[tr.ID] = tr.After
	}
	for id, after := range deps {
		for _, dep := range after {
			if departs[id] < arrivals[dep] {
				return fmt.Errorf("core: transfer %d departs at %d before dependency %d arrives at %d",
					id, departs[id], dep, arrivals[dep])
			}
		}
	}
	return nil
}

// OpSchedule is a fully compiled program: op start cycles plus the
// communication schedule binding devices together.
type OpSchedule struct {
	// Starts[op] is the op's issue cycle on its device.
	Starts []int64
	// Finish[op] is Starts[op] + duration.
	Finish []int64
	Comms  *CommSchedule
	// Makespan is the whole program's completion cycle.
	Makespan int64
	// DeviceBusy[d] is the total compute cycles on device d.
	DeviceBusy []int64
}

// CompileGraph schedules a whole computation graph: list scheduling of ops
// on their assigned devices (each device executes its ops in graph order,
// back to back, as the real chip's instruction streams do) interleaved
// with SSN scheduling of every cross-device tensor.
func CompileGraph(sys *topo.System, g *graph.Graph, deviceToTSP func(int) topo.TSPID) (*OpSchedule, error) {
	nOps := g.NumOps()
	os := &OpSchedule{
		Starts:     make([]int64, nOps),
		Finish:     make([]int64, nOps),
		DeviceBusy: make([]int64, g.Devices()),
	}
	// Count cross-device inputs per consumer: when several tensors
	// converge on one op (a reduction), their minimal links are all
	// busy simultaneously, so §4.3 non-minimal spreading would only
	// steal slots from sibling transfers — the compiler's global view
	// disables it for converging traffic.
	crossInputs := map[graph.OpID]int{}
	for _, e := range g.CommEdges() {
		crossInputs[e.Consumer]++
	}

	deviceCursor := make([]int64, g.Devices())
	net := fabric.NewScheduled()
	cs := &CommSchedule{Fabric: net}
	nextID := TransferID(0)
	// tensorReady[t] is the cycle tensor t exists on its producer.
	tensorReady := make(map[graph.TensorID]int64)

	for _, op := range g.Ops() {
		ready := deviceCursor[op.Device]
		// Gather the op's cross-device inputs first: converging
		// senders partition the detour-path diversity between
		// themselves so their spreads never collide.
		type inbound struct {
			tensor graph.TensorID
			src    topo.TSPID
		}
		var moves []inbound
		for _, in := range op.Inputs {
			t := g.Tensor(in)
			if t.Producer < 0 {
				continue
			}
			if g.Op(t.Producer).Device == op.Device {
				if tensorReady[in] > ready {
					ready = tensorReady[in]
				}
				continue
			}
			moves = append(moves, inbound{in, deviceToTSP(g.Op(t.Producer).Device)})
		}
		dstTSP := deviceToTSP(op.Device)
		senders := map[topo.TSPID]bool{}
		for _, mv := range moves {
			senders[mv.src] = true
		}
		for _, mv := range moves {
			var filter func(topo.TSPID) bool
			if len(moves) > 1 {
				// Never detour through a sibling sender: its
				// egress links are busy with its own minimal
				// stream. Neutral detour links are shared by
				// all senders (SharedBy below).
				filter = func(x topo.TSPID) bool { return !senders[x] }
			}
			tr := Transfer{
				ID:           nextID,
				Src:          mv.src,
				Dst:          dstTSP,
				Vectors:      g.Tensor(mv.tensor).Vectors(),
				Earliest:     tensorReady[mv.tensor],
				Intermediate: filter,
				SharedBy:     len(moves),
			}
			nextID++
			st, err := scheduleOne(sys, net, cs, tr, tr.Earliest)
			if err != nil {
				return nil, fmt.Errorf("core: moving %s to op %s: %w", g.Tensor(mv.tensor).Name, op.Name, err)
			}
			if st.Arrival > ready {
				ready = st.Arrival
			}
		}
		os.Starts[op.ID] = ready
		os.Finish[op.ID] = ready + op.Cycles
		deviceCursor[op.Device] = os.Finish[op.ID]
		os.DeviceBusy[op.Device] += op.Cycles
		if op.Output >= 0 {
			tensorReady[op.Output] = os.Finish[op.ID]
		}
		if os.Finish[op.ID] > os.Makespan {
			os.Makespan = os.Finish[op.ID]
		}
	}
	if cs.Makespan > os.Makespan {
		os.Makespan = cs.Makespan
	}
	os.Comms = cs
	return os, nil
}

// RecordObservability exports the compiled program g (scheduled with the
// same deviceToTSP) into rec: every op's statically known start and
// duration on its device, on a "compiled" track distinct from the
// functional-unit tracks actual execution writes, the op count and
// makespan, then the communication schedule. Safe on a nil recorder.
func (os *OpSchedule) RecordObservability(rec *obs.Recorder, g *graph.Graph, deviceToTSP func(int) topo.TSPID) {
	if rec == nil {
		return
	}
	for _, op := range g.Ops() {
		pid := int(deviceToTSP(op.Device))
		rec.SetProcessName(pid, fmt.Sprintf("tsp%d", pid))
		rec.SetThreadName(pid, compiledTid, "compiled")
		rec.SpanCycles(pid, compiledTid, op.Name, os.Starts[op.ID], op.Cycles)
	}
	rec.Counter("ssn.compiled_ops").Add(int64(g.NumOps()))
	rec.Gauge("ssn.graph_makespan_cycles").Set(os.Makespan)
	os.Comms.RecordObservability(rec)
}

// compiledTid is the per-chip trace track carrying the compiler's
// predicted op timeline (functional units occupy tids 0..NumUnits-1,
// links obs.TidLinkBase+).
const compiledTid = 50

// scheduleOne spreads one transfer per §4.3 and reserves each vector the
// earliest conflict-free slot at or after ready on every link of its
// route, appending to the schedule. Both compilers share it.
func scheduleOne(sys *topo.System, net *fabric.Scheduled, cs *CommSchedule, tr Transfer, ready int64) (ScheduledTransfer, error) {
	routes, err := route.SpreadTensor(sys, tr.Src, tr.Dst, tr.Vectors,
		route.SpreadOpts{AllowNonMinimal: !tr.MinimalOnly, Intermediate: tr.Intermediate, SharedBy: tr.SharedBy})
	if err != nil {
		return ScheduledTransfer{}, err
	}
	st := ScheduledTransfer{Transfer: tr, Depart: -1}
	// Per-path cursors keep a transfer's vectors back-to-back on their
	// own path while skipping slots other transfers own.
	cursors := map[string]int64{}
	for i, r := range routes {
		key := pathKey(r.Links)
		from := ready
		if c, ok := cursors[key]; ok && c > from {
			from = c
		}
		depart := net.NextFreeSlot(r.Links, from)
		arrival, err := net.ScheduleVector(r.Links, depart)
		if err != nil {
			return ScheduledTransfer{}, fmt.Errorf("vector %d: %w", i, err)
		}
		cursors[key] = depart + route.SlotCycles
		cs.Slots = append(cs.Slots, VectorSlot{
			Transfer: tr.ID, Index: i, Route: r, Depart: depart, Arrival: arrival,
		})
		if st.Depart < 0 || depart < st.Depart {
			st.Depart = depart
		}
		if arrival > st.Arrival {
			st.Arrival = arrival
		}
	}
	if st.Arrival > cs.Makespan {
		cs.Makespan = st.Arrival
	}
	cs.Transfers = append(cs.Transfers, st)
	return st, nil
}
