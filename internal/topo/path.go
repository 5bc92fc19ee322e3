package topo

// Path and reachability queries over the constructed topology. The SSN
// compiler (internal/core) uses these to enumerate minimal and non-minimal
// routes; the tests use them to verify the paper's diameter claims
// (3 hops at ≤264 TSPs, 5 hops at full scale).

// Path is a sequence of TSPs from source to destination; len-1 is the hop
// count.
type Path []TSPID

// Hops returns the number of link traversals.
func (p Path) Hops() int { return len(p) - 1 }

// bfs computes hop distances from src to every TSP.
func (s *System) bfs(src TSPID) []int {
	dist := make([]int, s.NumTSPs())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []TSPID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range s.out[u] {
			v := s.links[lid].To
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest minimal distance from src to any TSP,
// or -1 if some TSP is unreachable.
func (s *System) Eccentricity(src TSPID) int {
	ecc := 0
	for _, d := range s.bfs(src) {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the network diameter. The topology is node-symmetric up
// to port assignment, so eccentricities are sampled from one full node's
// worth of TSPs (different local indices can differ when global ports
// concentrate on particular TSPs).
func (s *System) Diameter() int {
	diam := 0
	for i := 0; i < TSPsPerNode && i < s.NumTSPs(); i++ {
		e := s.Eccentricity(TSPID(i))
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// DistanceAvoiding returns the minimal hop count from a to b through live
// TSPs only (-1 if unreachable). dead TSPs neither forward nor terminate
// traffic. Used by the N+1 failover logic to prove the Dragonfly stays
// fully connected after a node is retired (§4.5: the topology is edge and
// node symmetric).
func (s *System) DistanceAvoiding(a, b TSPID, dead func(TSPID) bool) int {
	if a == b {
		return 0
	}
	if dead(a) || dead(b) {
		return -1
	}
	dist := make([]int, s.NumTSPs())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []TSPID{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range s.out[u] {
			v := s.links[lid].To
			if dist[v] >= 0 || dead(v) {
				continue
			}
			dist[v] = dist[u] + 1
			if v == b {
				return dist[v]
			}
			queue = append(queue, v)
		}
	}
	return -1
}

// MinimalPaths enumerates up to max shortest paths from a to b by walking
// the BFS layer DAG. max <= 0 means no limit.
func (s *System) MinimalPaths(a, b TSPID, max int) []Path {
	if a == b {
		return []Path{{a}}
	}
	dist := s.bfs(a)
	if dist[b] < 0 {
		return nil
	}
	// preds[v] lists the distinct predecessors of v on shortest paths.
	var paths []Path
	var walk func(v TSPID, suffix Path)
	walk = func(v TSPID, suffix Path) {
		if max > 0 && len(paths) >= max {
			return
		}
		if v == a {
			p := make(Path, 0, len(suffix)+1)
			p = append(p, a)
			for i := len(suffix) - 1; i >= 0; i-- {
				p = append(p, suffix[i])
			}
			paths = append(paths, p)
			return
		}
		seen := map[TSPID]bool{}
		for _, lid := range s.out[v] {
			// Use the reverse link's source as a predecessor probe:
			// u→v exists iff v has an outgoing link to u whose
			// reverse ends here; adjacency is symmetric, so we can
			// scan v's outgoing neighbors.
			u := s.links[lid].To
			if seen[u] || dist[u] != dist[v]-1 {
				continue
			}
			seen[u] = true
			walk(u, append(suffix, v))
		}
	}
	walk(b, nil)
	return paths
}

// MinimalDisjointPaths greedily selects minimal paths that share no
// intermediate TSP (a practical bound on how many vectors can be spread
// without link conflicts along minimal routes).
func (s *System) MinimalDisjointPaths(a, b TSPID) []Path {
	all := s.MinimalPaths(a, b, 0)
	used := map[TSPID]bool{}
	var out []Path
	for _, p := range all {
		ok := true
		for _, t := range p[1 : len(p)-1] {
			if used[t] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, t := range p[1 : len(p)-1] {
			used[t] = true
		}
		out = append(out, p)
	}
	return out
}

// NonMinimalPaths enumerates one-intermediate-detour paths from a to b
// within a fully connected neighborhood (the intra-node case of §4.3 and
// Fig 10): a→x→b for every x adjacent to both. Paths are returned longest
// path diversity first-come; the minimal direct path is not included.
func (s *System) NonMinimalPaths(a, b TSPID) []Path {
	var out []Path
	for _, lid := range s.out[a] {
		x := s.links[lid].To
		if x == b {
			continue
		}
		if len(s.Between(x, b)) > 0 {
			out = append(out, Path{a, x, b})
		}
	}
	return out
}

// PathLinks resolves a TSP path to concrete link ids, choosing cable index
// choice (mod the available parallel cables) on every hop. It returns nil
// if any hop is not adjacent.
func (s *System) PathLinks(p Path, choice int) []LinkID {
	out := make([]LinkID, 0, p.Hops())
	for i := 0; i+1 < len(p); i++ {
		cables := s.Between(p[i], p[i+1])
		if len(cables) == 0 {
			return nil
		}
		out = append(out, cables[choice%len(cables)])
	}
	return out
}
