package topo

// Fig 2 reproduction: the global bandwidth profile per TSP.
//
// The paper plots, against system size, the sustainable *global* bandwidth
// each TSP enjoys, with cliffs at each packaging boundary: abundant wire
// density inside a node (<16 TSPs), ~50 GB/s per TSP while nodes can be
// fully connected (≤264 TSPs), and ~14 GB/s flat through the maximal
// 145-rack / 10,440-TSP Dragonfly.
//
// We derive the profile from channel-load analysis of the constructed
// wiring under uniform traffic with minimal routing: solve for the largest
// per-TSP injection bandwidth B such that no link class exceeds its
// capacity. The three regimes give three closed forms; the small-system
// forms are validated against Monte-Carlo channel loads on the explicit
// topology in the tests.

// UniformThroughputPerTSP returns the sustainable per-TSP global bandwidth
// in GB/s for a system of the given node count under uniform traffic.
func UniformThroughputPerTSP(nodes int) float64 {
	n := float64(nodes)
	N := n * TSPsPerNode
	switch {
	case nodes <= 1:
		// Within a fully connected node every pair has a dedicated
		// link: B/(N−1) per link.
		return LinkGBps * (N - 1)

	case nodes <= MaxAllToAllNodes:
		// All-to-all nodes with c = ⌊32/(n−1)⌋ cables per node pair.
		c := float64(GlobalPortsPerNode / (nodes - 1))
		// Global-cable constraint: node-pair traffic 64·B/(N−1) over
		// c cables.
		global := LinkGBps * c * (N - 1) / 64
		// Local-link constraint: a directed intra-node link carries
		// the source TSP's gateway traffic out (1/8 of its
		// inter-node volume), the mirrored inbound volume, and the
		// direct intra-node flow: B·(N−4)/(4(N−1)).
		local := 4 * LinkGBps * (N - 1) / (N - 4)
		return min2(global, local)

	default:
		r := nodes / NodesPerRack
		N = float64(r) * TSPsPerRack
		// Inter-rack cables: every rack contributes all 144 of its
		// inter-rack ports (72·r cables system-wide), and SSN's
		// deterministic non-minimal spreading balances the inter-rack
		// traffic across them, so the constraint is aggregate:
		// N·B·fᵢᵣ ≤ 2 · 72r · 12.5 → B ≤ 25·(N−1)/(N−72).
		global := 2 * LinkGBps * (N - 1) / (N - 72)
		// Group-link constraint (the binding one, and the reason the
		// profile flattens to ~14 GB/s): a doubly-connected directed
		// node pair carries outbound transit 8B·fᵢᵣ/9, inbound
		// transit 8B·fᵢᵣ/9, and direct intra-rack flow 8B·8/(N−1),
		// with fᵢᵣ = (N−72)/(N−1), over 2 cables.
		fir := (N - 72) / (N - 1)
		group := 2 * LinkGBps / (8 * (2*fir/9 + 8/(N-1)))
		// Local-link constraint, same form as the all-to-all regime.
		local := 4 * LinkGBps * (N - 1) / (N - 4)
		return min2(min2(global, group), local)
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ProfilePoint is one sample of the Fig 2 curve.
type ProfilePoint struct {
	TSPs   int
	Nodes  int
	Regime Regime
	GBps   float64
}

// BandwidthProfile samples the Fig 2 curve at every deployable system size:
// node counts 1..33, then whole racks up to 145.
func BandwidthProfile() []ProfilePoint {
	var pts []ProfilePoint
	add := func(nodes int, regime Regime) {
		pts = append(pts, ProfilePoint{
			TSPs:   nodes * TSPsPerNode,
			Nodes:  nodes,
			Regime: regime,
			GBps:   UniformThroughputPerTSP(nodes),
		})
	}
	add(1, SingleNode)
	for n := 2; n <= MaxAllToAllNodes; n++ {
		add(n, AllToAll)
	}
	for r := 4; r <= MaxRacks; r++ {
		add(r*NodesPerRack, RackDragonfly)
	}
	return pts
}

// ChannelLoads computes, for each link, the traffic crossing it when every
// TSP sends one unit of traffic spread equally over all other TSPs, with
// each pair's flow divided evenly across *all* of its minimal paths (and
// across parallel cables on every hop) — the deterministic spreading the
// SSN compiler performs. Exact but O(N²·E); intended for small systems to
// validate the closed forms above.
func (s *System) ChannelLoads() []float64 {
	loads := make([]float64, len(s.links))
	n := s.NumTSPs()
	unit := 1.0 / float64(n-1)
	order := make([]TSPID, n)
	npBwd := make([]float64, n)
	for a := 0; a < n; a++ {
		dist := s.bfs(TSPID(a))
		// npFwd[v]: number of shortest a→v paths.
		npFwd := make([]float64, n)
		npFwd[a] = 1
		for i := range order {
			order[i] = TSPID(i)
		}
		sortByDist(order, dist)
		for _, v := range order {
			if v == TSPID(a) || dist[v] < 0 {
				continue
			}
			// Each distinct predecessor TSP contributes its path
			// count once, regardless of parallel cables.
			seen := map[TSPID]bool{}
			for _, lid := range s.out[v] {
				u := s.links[lid].To
				if !seen[u] && dist[u] == dist[v]-1 {
					seen[u] = true
					npFwd[v] += npFwd[u]
				}
			}
		}
		for b := 0; b < n; b++ {
			if a == b || dist[b] < 0 {
				continue
			}
			// npBwd[v]: number of shortest v→b paths within the
			// a-rooted shortest-path DAG.
			for i := range npBwd {
				npBwd[i] = 0
			}
			npBwd[b] = 1
			for i := len(order) - 1; i >= 0; i-- {
				v := order[i]
				if dist[v] < 0 || dist[v] >= dist[b] || npFwd[v] == 0 {
					continue
				}
				seen := map[TSPID]bool{}
				for _, lid := range s.out[v] {
					w := s.links[lid].To
					if !seen[w] && dist[w] == dist[v]+1 {
						seen[w] = true
						npBwd[v] += npBwd[w]
					}
				}
			}
			total := npFwd[b]
			if total == 0 {
				continue
			}
			// Flow through TSP edge (u,v) = npFwd[u]·npBwd[v]/total,
			// split evenly across parallel cables.
			for _, l := range s.links {
				if dist[l.From] >= 0 && dist[l.To] == dist[l.From]+1 &&
					dist[l.To] <= dist[b] && npBwd[l.To] > 0 {
					cables := float64(len(s.Between(l.From, l.To)))
					loads[l.ID] += unit * npFwd[l.From] * npBwd[l.To] / total / cables
				}
			}
		}
	}
	return loads
}

// sortByDist orders TSP ids by ascending BFS distance (stable insertion for
// the small systems this is used on).
func sortByDist(order []TSPID, dist []int) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && dist[order[j]] > dist[v] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// PackagingDiameter returns the paper's hop accounting for the worst-case
// minimal route: the node-graph diameter plus the entry and exit local
// hops (3 for ≤264-TSP systems, 5 at rack scale). The TSP-level Diameter()
// can exceed this in the rack regime because a vector may need an extra
// local hop inside the gateway node to reach the TSP owning the outbound
// cable; the paper's count treats the node as a single virtual router.
func (s *System) PackagingDiameter() int {
	switch s.regime {
	case SingleNode:
		return 1
	case AllToAll:
		return 3
	default:
		return 5
	}
}
