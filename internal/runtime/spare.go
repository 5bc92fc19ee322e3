package runtime

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/topo"
)

// N+1 hot-spare failover (§4.5).
//
// Every deployed rack provisions one spare node. When the runtime's health
// monitor marks a node unusable, the logical devices mapped onto it move to
// a spare, and — because the Dragonfly is edge and node symmetric — the
// network remains fully connected for the remapped program. Larger systems
// can provision one spare per system instead, dropping the overhead from
// 11% (1/9) to ~3% (1/33); SparePolicy selects between the two.

// SparePolicy selects how many nodes an allocation holds in reserve.
type SparePolicy int

const (
	// SparePerSystem reserves a single spare node for the whole system —
	// the paper's ~3% overhead point at 33 nodes (1/33).
	SparePerSystem SparePolicy = iota
	// SparePerRack reserves one spare node in every rack — the 11%
	// overhead point (1/9), but failovers stay rack-local and sequential
	// node failures in different racks are all recoverable.
	SparePerRack
)

func (p SparePolicy) String() string {
	switch p {
	case SparePerSystem:
		return "per-system"
	case SparePerRack:
		return "per-rack"
	default:
		return "unknown"
	}
}

// Allocation maps a parallel program's logical devices onto physical TSPs,
// holding one or more nodes in reserve.
type Allocation struct {
	sys *topo.System
	// tspOf[logical] is the physical TSP currently serving the device.
	tspOf []topo.TSPID
	// spares are the reserved nodes still available, ascending.
	spares []topo.NodeID
	// failed marks retired nodes.
	failed map[topo.NodeID]bool
}

// NewAllocation reserves the highest-numbered node as the single hot spare
// (SparePerSystem) and packs the program's logical devices onto the
// remaining TSPs in order.
func NewAllocation(sys *topo.System, devices int) (*Allocation, error) {
	return NewAllocationWithPolicy(sys, devices, SparePerSystem)
}

// NewAllocationWithPolicy reserves spare nodes per the policy — the
// highest-numbered node of the system, or of every rack — and packs the
// program's logical devices onto the remaining TSPs in ascending order,
// skipping reserved nodes.
func NewAllocationWithPolicy(sys *topo.System, devices int, policy SparePolicy) (*Allocation, error) {
	if sys.NumNodes() < 2 {
		return nil, fmt.Errorf("runtime: N+1 sparing needs at least two nodes")
	}
	var spares []topo.NodeID
	switch policy {
	case SparePerSystem:
		spares = []topo.NodeID{topo.NodeID(sys.NumNodes() - 1)}
	case SparePerRack:
		// The highest node of each rack is its spare (racks fill in node
		// order, so the highest is the last packed).
		highest := map[topo.RackID]topo.NodeID{}
		for n := 0; n < sys.NumNodes(); n++ {
			highest[topo.NodeID(n).Rack()] = topo.NodeID(n)
		}
		for r := topo.RackID(0); r <= topo.NodeID(sys.NumNodes()-1).Rack(); r++ {
			spares = append(spares, highest[r])
		}
	default:
		return nil, fmt.Errorf("runtime: unknown spare policy %d", policy)
	}
	isSpare := map[topo.NodeID]bool{}
	for _, s := range spares {
		isSpare[s] = true
	}
	usable := (sys.NumNodes() - len(spares)) * topo.TSPsPerNode
	if devices > usable {
		return nil, fmt.Errorf("runtime: %d devices exceed %d non-spare TSPs", devices, usable)
	}
	a := &Allocation{sys: sys, spares: spares, failed: map[topo.NodeID]bool{}}
	for n, d := topo.NodeID(0), 0; d < devices; n++ {
		if isSpare[n] {
			continue
		}
		for i := 0; i < topo.TSPsPerNode && d < devices; i++ {
			a.tspOf = append(a.tspOf, topo.TSPID(int(n)*topo.TSPsPerNode+i))
			d++
		}
	}
	return a, nil
}

// TSPOf returns the physical TSP serving the logical device.
func (a *Allocation) TSPOf(device int) topo.TSPID { return a.tspOf[device] }

// Devices returns the number of logical devices in the allocation.
func (a *Allocation) Devices() int { return len(a.tspOf) }

// takeSpare removes and returns the best spare for a failure on node n:
// a spare in n's rack when one is available (the failover then stays
// rack-local), else the lowest-numbered spare.
func (a *Allocation) takeSpare(n topo.NodeID) topo.NodeID {
	pick := 0
	for i, s := range a.spares {
		if s.Rack() == n.Rack() {
			pick = i
			break
		}
	}
	s := a.spares[pick]
	a.spares = append(a.spares[:pick], a.spares[pick+1:]...)
	return s
}

// FailNode retires a node: every logical device on it moves to a spare
// (preserving local index, so the remapped program keeps its intra-node
// communication pattern), and that spare is consumed. Failing an idle
// spare node simply removes it from the reserve pool — unless it is the
// last one, which would leave the system unrecoverable. It records into
// rec.
func (a *Allocation) FailNode(n topo.NodeID, rec *obs.Recorder) error {
	if a.failed[n] {
		return fmt.Errorf("runtime: node %d already failed", n)
	}
	for i, s := range a.spares {
		if s != n {
			continue
		}
		if len(a.spares) == 1 {
			return fmt.Errorf("runtime: the spare node itself failed; no capacity to recover")
		}
		a.spares = append(a.spares[:i], a.spares[i+1:]...)
		a.failed[n] = true
		rec.Counter("runtime.spares_retired").Inc()
		return nil
	}
	if len(a.spares) == 0 {
		return fmt.Errorf("runtime: no spare remaining")
	}
	a.failed[n] = true
	spare := a.takeSpare(n)
	base := topo.TSPID(int(spare) * topo.TSPsPerNode)
	moved := int64(0)
	for d, t := range a.tspOf {
		if t.Node() == n {
			a.tspOf[d] = base + topo.TSPID(t.LocalIndex())
			moved++
		}
	}
	rec.Counter("runtime.spare_failovers").Inc()
	rec.Counter("runtime.devices_remapped").Add(moved)
	return nil
}

// VerifyConnected proves the program's current mapping is fully routable
// through live TSPs only: every pair of in-use TSPs must remain mutually
// reachable while avoiding failed nodes.
func (a *Allocation) VerifyConnected() error {
	dead := func(t topo.TSPID) bool { return a.failed[t.Node()] }
	for i, ti := range a.tspOf {
		for j := i + 1; j < len(a.tspOf); j++ {
			tj := a.tspOf[j]
			if ti == tj {
				return fmt.Errorf("runtime: devices %d and %d share TSP %d", i, j, ti)
			}
			if d := a.sys.DistanceAvoiding(ti, tj, dead); d < 0 {
				return fmt.Errorf("runtime: devices %d (TSP %d) and %d (TSP %d) disconnected after failover",
					i, ti, j, tj)
			}
		}
	}
	return nil
}
