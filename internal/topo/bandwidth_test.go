package topo

import (
	"math"
	"testing"
)

// TestFig2ProfileShape checks the paper's three bandwidth regimes: abundant
// intra-node bandwidth below 16 TSPs, ~50 GB/s per TSP through 264 TSPs,
// flattening to ~14 GB/s per TSP at full scale (Fig 2).
func TestFig2ProfileShape(t *testing.T) {
	// Single node: 7 dedicated 12.5 GB/s links per TSP.
	if b := UniformThroughputPerTSP(1); math.Abs(b-87.5) > 1e-9 {
		t.Fatalf("single node = %.2f GB/s, want 87.5", b)
	}
	// All-to-all regime stays around 50 GB/s.
	for _, nodes := range []int{5, 9, 17, 33} {
		b := UniformThroughputPerTSP(nodes)
		if b < 45 || b > 70 {
			t.Errorf("%d nodes: %.1f GB/s, want ~50", nodes, b)
		}
	}
	// 264 TSPs (33 nodes) specifically ~50.
	if b := UniformThroughputPerTSP(33); b < 48 || b < 45 || b > 55 {
		t.Errorf("264 TSPs: %.1f GB/s, want ~50", b)
	}
	// Rack regime flattens to ~14.
	for _, racks := range []int{16, 64, 145} {
		b := UniformThroughputPerTSP(racks * NodesPerRack / NodesPerRack * NodesPerRack)
		if b < 12 || b > 17 {
			t.Errorf("%d racks: %.1f GB/s, want ~14", racks, b)
		}
	}
	// The full system lands near the paper's 14 GB/s.
	if b := UniformThroughputPerTSP(MaxRacks * NodesPerRack); math.Abs(b-14.1) > 1.0 {
		t.Errorf("10,440 TSPs: %.2f GB/s, want ~14", b)
	}
}

func TestFig2ProfileMonotoneCliffs(t *testing.T) {
	pts := BandwidthProfile()
	if len(pts) < 100 {
		t.Fatalf("profile has %d points", len(pts))
	}
	// The profile must start at the single-node plateau and end at the
	// rack plateau, never dropping below the final plateau along the way.
	if pts[0].GBps < pts[len(pts)-1].GBps {
		t.Fatal("profile should decrease overall")
	}
	final := pts[len(pts)-1].GBps
	for _, p := range pts {
		if p.GBps < final-0.5 {
			t.Fatalf("point %d TSPs = %.2f dips below the final plateau %.2f", p.TSPs, p.GBps, final)
		}
	}
	// Regimes appear in order.
	last := SingleNode
	for _, p := range pts {
		if p.Regime < last {
			t.Fatal("regimes out of order")
		}
		last = p.Regime
	}
	// The largest point is the full machine.
	if pts[len(pts)-1].TSPs != MaxTSPs {
		t.Fatalf("last point = %d TSPs", pts[len(pts)-1].TSPs)
	}
}

// TestClosedFormMatchesChannelLoads sanity-checks the analytic formulas
// against exact channel-load analysis on explicitly constructed small
// systems. The two use slightly different routing policies — the closed
// forms model SSN's gateway spreading across all 32 node ports, while
// ChannelLoads spreads over strictly minimal paths — so agreement is
// expected at the shape level (same order of magnitude, single node exact).
func TestClosedFormMatchesChannelLoads(t *testing.T) {
	// The uniform-traffic throughput per TSP is link capacity divided by
	// the most loaded channel.
	maxLoad := func(s *System) float64 {
		var m float64
		for _, l := range s.ChannelLoads() {
			m = math.Max(m, l)
		}
		return m
	}
	// Single node: both policies coincide exactly (dedicated links).
	s1 := mustNew(t, 1)
	if m := LinkGBps / maxLoad(s1); m < 87.4 || m > 87.6 {
		t.Fatalf("single node measured %.2f GB/s, want 87.5", m)
	}
	for _, nodes := range []int{2, 3} {
		s := mustNew(t, nodes)
		measured := LinkGBps / maxLoad(s)
		analytic := UniformThroughputPerTSP(nodes)
		ratio := measured / analytic
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%d nodes: measured %.1f vs analytic %.1f GB/s (ratio %.2f)",
				nodes, measured, analytic, ratio)
		}
	}
}

// TestBisectionGrowsWithSystem counts the cables crossing the balanced
// node-level bisection: a larger system must carry more of them.
func TestBisectionGrowsWithSystem(t *testing.T) {
	bisection := func(s *System) int {
		half := NodeID(s.cfg.Nodes / 2)
		n := 0
		for _, l := range s.links {
			if (l.From.Node() < half) != (l.To.Node() < half) {
				n++
			}
		}
		return n
	}
	small, big := bisection(mustNew(t, 2)), bisection(mustNew(t, 8))
	if big <= small {
		t.Fatalf("bisection should grow: 2 nodes %d links vs 8 nodes %d", small, big)
	}
}

func TestMinimalPathsSingleNode(t *testing.T) {
	s := mustNew(t, 1)
	paths := s.MinimalPaths(0, 5, 0)
	if len(paths) != 1 || paths[0].Hops() != 1 {
		t.Fatalf("direct neighbors should have one 1-hop path, got %v", paths)
	}
	if p := s.MinimalPaths(3, 3, 0); len(p) != 1 || p[0].Hops() != 0 {
		t.Fatal("self path should be trivial")
	}
}

func TestNonMinimalPathsWithinNode(t *testing.T) {
	// §4.3 / Fig 10: a fully connected 8-TSP node has 1 minimal and 6
	// two-hop non-minimal paths between any pair (through each of the
	// other 6 TSPs).
	s := mustNew(t, 1)
	nm := s.NonMinimalPaths(0, 7)
	if len(nm) != 6 {
		t.Fatalf("non-minimal paths = %d, want 6", len(nm))
	}
	for _, p := range nm {
		if p.Hops() != 2 || p[0] != 0 || p[2] != 7 {
			t.Fatalf("bad non-minimal path %v", p)
		}
	}
}

func TestMinimalPathsAcrossNodes(t *testing.T) {
	s := mustNew(t, 3)
	// Pick TSPs in different nodes; all minimal paths must have equal
	// length and start/end correctly.
	a, b := TSPID(0), TSPID(20)
	paths := s.MinimalPaths(a, b, 50)
	if len(paths) == 0 {
		t.Fatal("no path found")
	}
	want := s.bfs(a)[b]
	for _, p := range paths {
		if p.Hops() != want {
			t.Fatalf("path %v has %d hops, want %d", p, p.Hops(), want)
		}
		if p[0] != a || p[len(p)-1] != b {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		// Consecutive TSPs must be adjacent.
		for i := 0; i+1 < len(p); i++ {
			if len(s.Between(p[i], p[i+1])) == 0 {
				t.Fatalf("path %v hop %d not adjacent", p, i)
			}
		}
	}
}

func TestMinimalPathsLimit(t *testing.T) {
	s := mustNew(t, 9)
	paths := s.MinimalPaths(0, 71, 3)
	if len(paths) > 3 {
		t.Fatalf("limit ignored: %d paths", len(paths))
	}
}

func TestMinimalDisjointPaths(t *testing.T) {
	s := mustNew(t, 2)
	a, b := TSPID(0), TSPID(15)
	dis := s.MinimalDisjointPaths(a, b)
	if len(dis) == 0 {
		t.Fatal("no disjoint paths")
	}
	used := map[TSPID]bool{}
	for _, p := range dis {
		for _, x := range p[1 : len(p)-1] {
			if used[x] {
				t.Fatalf("intermediate %d reused", x)
			}
			used[x] = true
		}
	}
}

func TestPathLinksResolution(t *testing.T) {
	s := mustNew(t, 1)
	p := Path{0, 3, 7}
	links := s.PathLinks(p, 0)
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	if s.Link(links[0]).From != 0 || s.Link(links[0]).To != 3 {
		t.Fatal("first hop wrong")
	}
	if s.PathLinks(Path{0, 0}, 0) != nil {
		t.Fatal("non-adjacent path should resolve to nil")
	}
}

func TestDistanceSymmetry(t *testing.T) {
	s := mustNew(t, 3)
	for a := TSPID(0); a < 24; a += 5 {
		for b := TSPID(0); b < 24; b += 7 {
			if s.bfs(a)[b] != s.bfs(b)[a] {
				t.Fatalf("distance asymmetry %d-%d", a, b)
			}
		}
	}
}
