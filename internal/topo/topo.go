// Package topo constructs the software-defined Dragonfly topology of the
// scale-out TSP system (paper §2).
//
// The packaging hierarchy is:
//
//   - TSP: 11 C2C links — 7 "local" + 4 "global" (§2.2);
//   - node: a 4U chassis of 8 TSPs, fully connected by the local links
//     (28 internal cables); the 32 global link endpoints of a node act as
//     one 32-port "virtual router", the Dragonfly group;
//   - small systems (≤33 nodes, ≤264 TSPs): nodes all-to-all over global
//     ports, diameter 3 (local, global, local);
//   - rack: 9 nodes; large systems use the rack as the Dragonfly local
//     group, spending half its 288 ports to doubly-connect the 9 nodes
//     (the 2× internal speedup) and half to connect racks all-to-all,
//     scaling to 145 racks = 10,440 TSPs at diameter 5.
//
// Because every TSP is simultaneously an endpoint and a router (Fig 4c),
// the topology is "glueless": there are no switches to model, only TSPs
// and cables.
package topo

import (
	"fmt"

	"repro/internal/c2c"
)

// Architectural constants (§2.2).
const (
	TSPsPerNode        = 8
	LocalLinksPerTSP   = 7
	GlobalLinksPerTSP  = 4
	GlobalPortsPerNode = TSPsPerNode * GlobalLinksPerTSP // 32
	NodesPerRack       = 9
	TSPsPerRack        = TSPsPerNode * NodesPerRack // 72
	// MaxAllToAllNodes is the largest node count that can be fully
	// connected with 32 global ports per node.
	MaxAllToAllNodes = GlobalPortsPerNode + 1 // 33
	// MaxRacks is the largest rack count: 144 inter-rack ports per rack,
	// one per peer rack.
	MaxRacks = GlobalPortsPerNode*NodesPerRack/2 + 1 // 145
	// MaxTSPs is the full system scale the paper reports.
	MaxTSPs = MaxRacks * TSPsPerRack // 10,440
)

// LinkGBps is the per-direction payload bandwidth of one C2C link in GB/s.
const LinkGBps = 12.5

// TSPID identifies a TSP; NodeID a node; RackID a rack.
type TSPID int
type NodeID int
type RackID int

// Node returns the node housing the TSP.
func (t TSPID) Node() NodeID { return NodeID(t / TSPsPerNode) }

// LocalIndex returns the TSP's position within its node (0..7).
func (t TSPID) LocalIndex() int { return int(t % TSPsPerNode) }

// Rack returns the rack housing the node.
func (n NodeID) Rack() RackID { return RackID(n / NodesPerRack) }

// Kind classifies a link by its place in the packaging hierarchy.
type Kind int

const (
	// Local links fully connect the 8 TSPs of a node.
	Local Kind = iota
	// Group links connect nodes within a rack (rack-regime systems only).
	Group
	// Global links connect nodes (small systems) or racks (large
	// systems).
	Global
)

func (k Kind) String() string {
	switch k {
	case Local:
		return "local"
	case Group:
		return "group"
	default:
		return "global"
	}
}

// LinkID indexes a unidirectional link in the system.
type LinkID int

// Link is one unidirectional C2C link instance. Physical cables are full
// duplex; each cable appears as two Links with mirrored endpoints and equal
// Cable configs. Reverse names the opposite direction.
type Link struct {
	ID       LinkID
	From, To TSPID
	Kind     Kind
	Cable    c2c.Config
	Reverse  LinkID
}

// Regime is the wiring scheme the system size selects.
type Regime int

const (
	// SingleNode systems use only local links.
	SingleNode Regime = iota
	// AllToAll systems fully connect up to 33 nodes over global ports.
	AllToAll
	// RackDragonfly systems use the rack as the Dragonfly group.
	RackDragonfly
)

func (r Regime) String() string {
	switch r {
	case SingleNode:
		return "single-node"
	case AllToAll:
		return "node-all-to-all"
	default:
		return "rack-dragonfly"
	}
}

// Wiring selects how a node's 7 local links per TSP are spent (§4.4).
type Wiring int

const (
	// FullyConnected wires each TSP to all 7 peers — uniform intra-node
	// bandwidth, the default deployment.
	FullyConnected Wiring = iota
	// TripleRing wires the node as a radix-8 torus (ring) with
	// triple-connected neighbor links plus one cross link to the
	// antipodal TSP: 3+3+1 = 7 local links. Pipelined model-parallel
	// inference flows between ring neighbors at 3× the bandwidth of the
	// fully connected wiring (§4.4).
	TripleRing
)

func (w Wiring) String() string {
	if w == TripleRing {
		return "triple-ring"
	}
	return "fully-connected"
}

// Config sizes a system.
type Config struct {
	// Nodes is the number of 8-TSP nodes. 1..33 build the all-to-all
	// regime; larger counts (must be a multiple of 9) build the rack
	// Dragonfly.
	Nodes int
	// LocalWiring selects the intra-node link arrangement.
	LocalWiring Wiring
}

// System is a constructed topology.
type System struct {
	cfg    Config
	regime Regime
	links  []Link
	// out[t] lists the unidirectional links leaving TSP t.
	out [][]LinkID
	// port[l] is link l's index in out[l.From]; checkPortBudget caps a
	// TSP at 11 links, so a byte holds it.
	port []uint8
	// between caches directed TSP-pair -> link ids.
	between map[[2]TSPID][]LinkID
}

// New constructs and validates a system topology.
func New(cfg Config) (*System, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("topo: need at least one node")
	}
	var regime Regime
	switch {
	case cfg.Nodes == 1:
		regime = SingleNode
	case cfg.Nodes <= MaxAllToAllNodes:
		regime = AllToAll
	default:
		if cfg.Nodes%NodesPerRack != 0 {
			return nil, fmt.Errorf("topo: %d nodes: rack-regime systems must be whole racks of %d nodes", cfg.Nodes, NodesPerRack)
		}
		if cfg.Nodes/NodesPerRack > MaxRacks {
			return nil, fmt.Errorf("topo: %d racks exceeds the %d-rack maximum", cfg.Nodes/NodesPerRack, MaxRacks)
		}
		regime = RackDragonfly
	}

	s := &System{
		cfg:     cfg,
		regime:  regime,
		out:     make([][]LinkID, cfg.Nodes*TSPsPerNode),
		between: make(map[[2]TSPID][]LinkID),
	}
	s.buildLocal()
	switch regime {
	case AllToAll:
		s.buildAllToAll()
	case RackDragonfly:
		s.buildRackDragonfly()
	}
	if err := s.checkPortBudget(); err != nil {
		return nil, err
	}
	s.port = make([]uint8, len(s.links))
	for _, out := range s.out {
		for i, lid := range out {
			s.port[lid] = uint8(i)
		}
	}
	return s, nil
}

// NumTSPs returns the endpoint count.
func (s *System) NumTSPs() int { return s.cfg.Nodes * TSPsPerNode }

// NumNodes returns the node count.
func (s *System) NumNodes() int { return s.cfg.Nodes }

// NumRacks returns the rack count (0 for sub-rack systems).
func (s *System) NumRacks() int {
	if s.regime != RackDragonfly {
		return 0
	}
	return s.cfg.Nodes / NodesPerRack
}

// Regime returns the wiring regime.
func (s *System) Regime() Regime { return s.regime }

// Links returns all unidirectional links.
func (s *System) Links() []Link { return s.links }

// Link returns the link with the given id.
func (s *System) Link(id LinkID) Link { return s.links[id] }

// Out returns the ids of links leaving TSP t.
func (s *System) Out(t TSPID) []LinkID { return s.out[t] }

// Between returns the ids of links from a directly to b (possibly several
// parallel cables), or nil when the TSPs are not adjacent.
func (s *System) Between(a, b TSPID) []LinkID { return s.between[[2]TSPID{a, b}] }

// Port returns link l's chip-local port number: its index in
// Out(l.From). A program's SEND names a port on the sending chip and its
// RECV a port on the receiving chip, so the vector on link l is received
// on port Port(Link(l).Reverse).
func (s *System) Port(l LinkID) int { return int(s.port[l]) }

// PortTo returns the port on a of the first link from a to b, and false
// when the TSPs are not adjacent.
func (s *System) PortTo(a, b TSPID) (int, bool) {
	ls := s.Between(a, b)
	if len(ls) == 0 {
		return 0, false
	}
	return int(s.port[ls[0]]), true
}

// addCable installs one full-duplex cable as two mirrored links.
func (s *System) addCable(a, b TSPID, kind Kind, cable c2c.Config) {
	fwd := LinkID(len(s.links))
	rev := fwd + 1
	s.links = append(s.links,
		Link{ID: fwd, From: a, To: b, Kind: kind, Cable: cable, Reverse: rev},
		Link{ID: rev, From: b, To: a, Kind: kind, Cable: cable, Reverse: fwd},
	)
	s.out[a] = append(s.out[a], fwd)
	s.out[b] = append(s.out[b], rev)
	s.between[[2]TSPID{a, b}] = append(s.between[[2]TSPID{a, b}], fwd)
	s.between[[2]TSPID{b, a}] = append(s.between[[2]TSPID{b, a}], rev)
}

// buildLocal wires the 8 TSPs of every node with low-profile 0.75 m
// electrical cable under the chassis shroud: 28 cables per node in the
// fully connected arrangement, or the §4.4 triple-connected ring (3 cables
// to each ring neighbor + 1 antipodal cross link, also 28 cables total).
func (s *System) buildLocal() {
	for n := 0; n < s.cfg.Nodes; n++ {
		base := TSPID(n * TSPsPerNode)
		switch s.cfg.LocalWiring {
		case TripleRing:
			for i := 0; i < TSPsPerNode; i++ {
				next := (i + 1) % TSPsPerNode
				for k := 0; k < 3; k++ {
					s.addCable(base+TSPID(i), base+TSPID(next), Local, c2c.IntraNode())
				}
			}
			// Antipodal cross links (i, i+4) use the 7th port.
			for i := 0; i < TSPsPerNode/2; i++ {
				s.addCable(base+TSPID(i), base+TSPID(i+4), Local, c2c.IntraNode())
			}
		default:
			for i := 0; i < TSPsPerNode; i++ {
				for j := i + 1; j < TSPsPerNode; j++ {
					s.addCable(base+TSPID(i), base+TSPID(j), Local, c2c.IntraNode())
				}
			}
		}
	}
}

// globalPortOwner deterministically maps a node's global port index (0..31)
// to the TSP contributing it: TSP k owns ports 4k..4k+3.
func globalPortOwner(node NodeID, port int) TSPID {
	return TSPID(int(node)*TSPsPerNode + port/GlobalLinksPerTSP)
}

// buildAllToAll wires every node pair with an equal share of the 32 global
// ports per node: ⌊32/(n−1)⌋ cables per pair, remaining ports unused
// (reserved for resiliency in deployed systems).
func (s *System) buildAllToAll() {
	n := s.cfg.Nodes
	perPair := GlobalPortsPerNode / (n - 1)
	// nextPort[v] is node v's next free global port.
	nextPort := make([]int, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for k := 0; k < perPair; k++ {
				ta := globalPortOwner(NodeID(a), nextPort[a])
				tb := globalPortOwner(NodeID(b), nextPort[b])
				nextPort[a]++
				nextPort[b]++
				s.addCable(ta, tb, Global, c2c.IntraRack())
			}
		}
	}
}

// buildRackDragonfly wires racks of 9 nodes: within each rack, every node
// pair gets 2 cables (16 of each node's 32 ports — the 2× internal
// speedup); the remaining 144 ports per rack connect racks all-to-all with
// ⌊144/(r−1)⌋ cables per rack pair.
func (s *System) buildRackDragonfly() {
	racks := s.cfg.Nodes / NodesPerRack
	nextPort := make([]int, s.cfg.Nodes)

	// Intra-rack group links: doubly-connected 9-node clique.
	for r := 0; r < racks; r++ {
		base := r * NodesPerRack
		for a := 0; a < NodesPerRack; a++ {
			for b := a + 1; b < NodesPerRack; b++ {
				for k := 0; k < 2; k++ {
					na, nb := NodeID(base+a), NodeID(base+b)
					ta := globalPortOwner(na, nextPort[base+a])
					tb := globalPortOwner(nb, nextPort[base+b])
					nextPort[base+a]++
					nextPort[base+b]++
					s.addCable(ta, tb, Group, c2c.IntraRack())
				}
			}
		}
	}

	// Inter-rack global links. Each rack has 144 remaining ports, one
	// cable endpoint each. Cables are dealt in round-robin passes over
	// all rack pairs until the ports are exhausted, so every port is
	// used: the SSN compiler's deterministic load balancing can exploit
	// uneven pair multiplicities, and leaving ports dark would carve an
	// artificial dip into the Fig 2 bandwidth profile.
	if racks < 2 {
		return
	}
	const interRackPorts = GlobalPortsPerNode*NodesPerRack - 16*NodesPerRack // 144
	portsLeft := make([]int, racks)
	for r := range portsLeft {
		portsLeft[r] = interRackPorts
	}
	rackPort := make([]int, racks) // next inter-rack port index per rack
	takePort := func(r int) TSPID {
		p := rackPort[r]
		rackPort[r]++
		node := r*NodesPerRack + p%NodesPerRack
		t := globalPortOwner(NodeID(node), nextPort[node])
		nextPort[node]++
		return t
	}
	for added := true; added; {
		added = false
		for a := 0; a < racks; a++ {
			for b := a + 1; b < racks; b++ {
				if portsLeft[a] == 0 || portsLeft[b] == 0 {
					continue
				}
				portsLeft[a]--
				portsLeft[b]--
				// 20 m optical cables between racks.
				s.addCable(takePort(a), takePort(b), Global, c2c.InterRack(20))
				added = true
			}
		}
	}
}

// checkPortBudget verifies no TSP exceeds its 7 local + 4 global links.
func (s *System) checkPortBudget() error {
	local := make([]int, s.NumTSPs())
	global := make([]int, s.NumTSPs())
	for _, l := range s.links {
		// Count each cable once, at its From endpoint of the forward
		// direction; the reverse link covers the other endpoint.
		switch l.Kind {
		case Local:
			local[l.From]++
		default:
			global[l.From]++
		}
	}
	for t := 0; t < s.NumTSPs(); t++ {
		if local[t] > LocalLinksPerTSP {
			return fmt.Errorf("topo: TSP %d uses %d local links (max %d)", t, local[t], LocalLinksPerTSP)
		}
		if global[t] > GlobalLinksPerTSP {
			return fmt.Errorf("topo: TSP %d uses %d global links (max %d)", t, global[t], GlobalLinksPerTSP)
		}
	}
	return nil
}

// CableStats summarizes the physical cable inventory (§2.3's "73% of the
// cables short and inexpensive" claim).
type CableStats struct {
	Total      int
	Electrical int
	Optical    int
	ByKind     map[Kind]int
}

// Cables computes the physical (bidirectional) cable inventory.
func (s *System) Cables() CableStats {
	st := CableStats{ByKind: map[Kind]int{}}
	for _, l := range s.links {
		if l.ID > l.Reverse {
			continue // count each cable once
		}
		st.Total++
		st.ByKind[l.Kind]++
		if l.Cable.Media == c2c.Electrical {
			st.Electrical++
		} else {
			st.Optical++
		}
	}
	return st
}

func (s *System) String() string {
	return fmt.Sprintf("topo{%d nodes, %d TSPs, %s, %d cables}",
		s.cfg.Nodes, s.NumTSPs(), s.regime, len(s.links)/2)
}
