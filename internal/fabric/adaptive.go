package fabric

import "repro/internal/topo"

// Adaptive is the second conventional baseline of Fig 8: a minimal-path
// router that *reacts* to congestion. Each vector prefers its minimal
// route, but when the sender observes the minimal link's queue beyond a
// threshold (the "back-pressure sensed" arrow of Fig 8), it detours via a
// 2-hop non-minimal path chosen by its arbitration RNG.
//
// This recovers some throughput under contention — at the cost the paper
// calls out: arrival times become load-dependent, and vectors of one
// tensor arrive *out of order*, requiring reorder buffers downstream. The
// SSN fabric exhibits neither.
type Adaptive struct {
	dynNet
	threshold int64 // queue depth (cycles of backlog) that triggers detours
}

// NewAdaptive creates the adaptive baseline. threshold is the backlog (in
// cycles) on the minimal first hop beyond which a vector detours.
func NewAdaptive(sys *topo.System, seed uint64, threshold int64) *Adaptive {
	return &Adaptive{dynNet: newDynNet(sys, seed), threshold: threshold}
}

// Inject queues a vector from src to dst starting at the given cycle. The
// route is decided when the vector reaches its injection port (hop 0) —
// that is when a real router's allocator sees the congestion state.
func (a *Adaptive) Inject(id int, src, dst topo.TSPID, depart int64) {
	direct := a.sys.Between(src, dst)
	if len(direct) == 0 {
		panic("fabric: adaptive baseline requires adjacent src/dst")
	}
	a.push(&dynEvent{
		time: depart, vector: id, links: []topo.LinkID{direct[0]},
		depart: depart, src: src, dst: dst,
	})
}

// Run drains all traffic, returning deliveries in completion order.
func (a *Adaptive) Run() []Delivery { return a.run(a.detour) }

// detour reroutes a vector through a random common neighbor (Fig 8 step
// 3) when back-pressure is sensed on its minimal link.
func (a *Adaptive) detour(e *dynEvent) {
	if a.nextFree[e.links[0]]-e.time <= a.threshold {
		return
	}
	if detours := a.sys.NonMinimalPaths(e.src, e.dst); len(detours) > 0 {
		e.links = a.sys.PathLinks(detours[a.rng.Intn(len(detours))], 0)
	}
}

// ReorderCount counts how many deliveries of the same (src,dst) flow
// arrived out of injection order — the reordering adaptive routing induces
// and SSN structurally cannot.
func ReorderCount(deliveries []Delivery) int {
	type flow struct{ src, dst topo.TSPID }
	lastID := map[flow]int{}
	out := 0
	for _, d := range deliveries {
		f := flow{d.Src, d.Dst}
		if prev, ok := lastID[f]; ok && d.VectorID < prev {
			out++
		}
		if d.VectorID > lastID[f] {
			lastID[f] = d.VectorID
		}
	}
	return out
}
