// Package fabric simulates vector transport over the constructed topology
// in the two flow-control disciplines the paper contrasts (Fig 8):
//
//   - the software-scheduled network (SSN): no arbitration, no queues, no
//     back-pressure. Every vector's departure slot on every link is a
//     compile-time reservation; the fabric's only hardware duty is to
//     verify the schedule is legal (no two vectors in one slot — "never
//     overflow the transmitter") and deliver each vector exactly
//     HopCycles after each hop's departure. Arrival times are bit-exact
//     across runs by construction.
//
//   - a conventional dynamically routed baseline: per-link output FIFOs,
//     arbitration among contending vectors, and queueing delay. Arrival
//     times vary with contention and arbitration races, which is the
//     latency variance SSN exists to eliminate.
//
// Time in this package is the system-wide synchronized cycle count (the
// illusion maintained by internal/hac); one slot is c2c.VectorSlotCycles.
package fabric

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Scheduled is the SSN fabric: a reservation table per link plus the
// deterministic delivery rule.
type Scheduled struct {
	// slots[link] holds the reserved departure cycles, kept sorted.
	slots map[topo.LinkID][]int64
}

// Delivery reports one vector's transit.
type Delivery struct {
	VectorID int
	Src, Dst topo.TSPID
	Depart   int64
	Arrival  int64
}

// NewScheduled creates an empty SSN fabric over the system.
func NewScheduled() *Scheduled {
	return &Scheduled{slots: make(map[topo.LinkID][]int64)}
}

// reserve claims [start, start+Slot) on the link, failing on any overlap.
func (s *Scheduled) reserve(l topo.LinkID, start int64) error {
	slots := s.slots[l]
	i := sort.Search(len(slots), func(i int) bool { return slots[i] > start-route.SlotCycles })
	if i < len(slots) && slots[i] < start+route.SlotCycles {
		return fmt.Errorf("fabric: link %d slot conflict at cycle %d (existing %d)", l, start, slots[i])
	}
	slots = append(slots, 0)
	copy(slots[i+1:], slots[i:])
	slots[i] = start
	s.slots[l] = slots
	return nil
}

// ScheduleVector reserves the vector's whole path, hop by hop under virtual
// cut-through (each hop departs the instant the vector arrives from the
// previous one), and returns the deterministic arrival cycle at the
// destination. A slot conflict on any hop fails the whole reservation —
// the compiler must pick a different slot; nothing is queued.
func (s *Scheduled) ScheduleVector(links []topo.LinkID, depart int64) (int64, error) {
	if len(links) == 0 {
		return 0, fmt.Errorf("fabric: empty route")
	}
	// First validate every hop, then commit; a failed vector must not
	// leave partial reservations behind.
	t := depart
	starts := make([]int64, len(links))
	for i := range links {
		starts[i] = t
		t += route.HopCycles
	}
	committed := 0
	for i, l := range links {
		if err := s.reserve(l, starts[i]); err != nil {
			// Roll back prior hops.
			for j := 0; j < committed; j++ {
				s.unreserve(links[j], starts[j])
			}
			return 0, err
		}
		committed++
	}
	return t, nil
}

func (s *Scheduled) unreserve(l topo.LinkID, start int64) {
	slots := s.slots[l]
	i := sort.Search(len(slots), func(i int) bool { return slots[i] >= start })
	if i < len(slots) && slots[i] == start {
		s.slots[l] = append(slots[:i], slots[i+1:]...)
	}
}

// NextFreeSlot returns the earliest cycle >= from at which the whole route
// can be reserved. On a conflict the search jumps past the blocking
// reservation rather than stepping slot by slot, so long busy stretches
// (a saturated link) are skipped in one probe each.
func (s *Scheduled) NextFreeSlot(links []topo.LinkID, from int64) int64 {
	t := from
	for {
		ok, retry := s.probe(links, t)
		if ok {
			return t
		}
		if retry <= t {
			retry = t + route.SlotCycles
		}
		t = retry
	}
}

// probe reports whether the route could be reserved at depart. On failure
// it also returns the earliest departure that could clear the blocking
// reservation.
func (s *Scheduled) probe(links []topo.LinkID, depart int64) (bool, int64) {
	t := depart
	for hop, l := range links {
		slots := s.slots[l]
		i := sort.Search(len(slots), func(i int) bool { return slots[i] > t-route.SlotCycles })
		if i < len(slots) && slots[i] < t+route.SlotCycles {
			// The blocking reservation ends at slots[i]+Slot on
			// this hop; shift the departure so this hop lands
			// just past it.
			return false, slots[i] + route.SlotCycles - int64(hop)*route.HopCycles
		}
		t += route.HopCycles
	}
	return true, 0
}

// Dynamic is the conventional baseline: per-link FIFOs with arbitration.
// Vectors are source-routed (for comparability) but experience queueing
// delay under contention. Arbitration ties are broken by a seeded RNG,
// modeling the races a real router's allocator resolves unpredictably.
type Dynamic struct{ dynNet }

// dynNet is the event loop both dynamic baselines share: a heap of hop
// events ordered by (time, random tie, injection sequence), and each
// link's next free cycle.
type dynNet struct {
	sys      *topo.System
	rng      *sim.RNG
	events   dynQueue
	seq      uint64
	nextFree map[topo.LinkID]int64
	done     []Delivery
}

type dynEvent struct {
	time   int64
	tie    uint64 // randomized arbitration priority
	seq    uint64
	vector int
	links  []topo.LinkID
	hop    int
	depart int64
	src    topo.TSPID
	// dst is used by the adaptive baseline's lazy route decision.
	dst topo.TSPID
}

type dynQueue []*dynEvent

func (q dynQueue) Len() int { return len(q) }
func (q dynQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].tie != q[j].tie {
		return q[i].tie < q[j].tie
	}
	return q[i].seq < q[j].seq
}
func (q dynQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *dynQueue) Push(x interface{}) { *q = append(*q, x.(*dynEvent)) }
func (q *dynQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func newDynNet(sys *topo.System, seed uint64) dynNet {
	return dynNet{sys: sys, rng: sim.NewRNG(seed), nextFree: make(map[topo.LinkID]int64)}
}

// push queues e with the next sequence number and a fresh arbitration
// tie: exactly one RNG draw per push.
func (n *dynNet) push(e *dynEvent) {
	n.seq++
	e.seq, e.tie = n.seq, n.rng.Uint64()
	heap.Push(&n.events, e)
}

// run drains all traffic and returns the deliveries in completion order.
// Each popped hop queues behind the link's earlier winners, then forwards
// to the next hop or delivers. detour, when non-nil, may replace a
// vector's route as it reaches its injection port (hop 0).
func (n *dynNet) run(detour func(*dynEvent)) []Delivery {
	for n.events.Len() > 0 {
		e := heap.Pop(&n.events).(*dynEvent)
		if e.hop == 0 && detour != nil {
			detour(e)
		}
		l := e.links[e.hop]
		start := e.time
		if nf := n.nextFree[l]; nf > start {
			start = nf // queueing delay behind earlier winners
		}
		n.nextFree[l] = start + route.SlotCycles
		arrive := start + route.HopCycles
		if e.hop+1 < len(e.links) {
			n.push(&dynEvent{
				time: arrive, vector: e.vector, links: e.links, hop: e.hop + 1,
				depart: e.depart, src: e.src,
			})
			continue
		}
		n.done = append(n.done, Delivery{
			VectorID: e.vector,
			Src:      e.src,
			Dst:      n.sys.Link(l).To,
			Depart:   e.depart,
			Arrival:  arrive,
		})
	}
	return n.done
}

// NewDynamic creates a baseline network. The seed perturbs arbitration
// outcomes: different seeds model different runs of a non-deterministic
// machine.
func NewDynamic(sys *topo.System, seed uint64) *Dynamic {
	return &Dynamic{newDynNet(sys, seed)}
}

// Inject enqueues a vector for transmission along the given route starting
// at the given cycle.
func (d *Dynamic) Inject(id int, links []topo.LinkID, depart int64) {
	if len(links) == 0 {
		panic("fabric: empty route")
	}
	d.push(&dynEvent{
		time: depart, vector: id, links: links, depart: depart,
		src: d.sys.Link(links[0]).From,
	})
}

// Run processes all queued traffic and returns the deliveries in completion
// order.
func (d *Dynamic) Run() []Delivery { return d.run(nil) }
