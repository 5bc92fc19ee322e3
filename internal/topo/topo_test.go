package topo

import (
	"testing"

	"repro/internal/c2c"
)

func mustNew(t *testing.T, nodes int) *System {
	t.Helper()
	s, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatalf("New(%d nodes): %v", nodes, err)
	}
	return s
}

func TestArchitecturalConstants(t *testing.T) {
	if MaxAllToAllNodes != 33 {
		t.Fatalf("MaxAllToAllNodes = %d, want 33", MaxAllToAllNodes)
	}
	if MaxRacks != 145 {
		t.Fatalf("MaxRacks = %d, want 145", MaxRacks)
	}
	if MaxTSPs != 10440 {
		t.Fatalf("MaxTSPs = %d, want 10,440", MaxTSPs)
	}
	if TSPsPerRack != 72 {
		t.Fatalf("TSPsPerRack = %d, want 72", TSPsPerRack)
	}
}

func TestSingleNode(t *testing.T) {
	s := mustNew(t, 1)
	if s.Regime() != SingleNode {
		t.Fatal("regime")
	}
	st := s.Cables()
	// 28 internal cables fully connect 8 TSPs (§2.3).
	if st.Total != 28 || st.ByKind[Local] != 28 {
		t.Fatalf("cables = %+v, want 28 local", st)
	}
	if st.Electrical != 28 || st.Optical != 0 {
		t.Fatal("intra-node cables must be electrical")
	}
	// Full connectivity: diameter 1.
	if d := s.Diameter(); d != 1 {
		t.Fatalf("single-node diameter = %d, want 1", d)
	}
	// Every TSP has exactly 7 local links.
	for tsp := TSPID(0); tsp < 8; tsp++ {
		if len(s.Out(tsp)) != 7 {
			t.Fatalf("TSP %d has %d links, want 7", tsp, len(s.Out(tsp)))
		}
	}
}

func TestTwoNodeSystem(t *testing.T) {
	s := mustNew(t, 2)
	if s.Regime() != AllToAll {
		t.Fatal("regime")
	}
	st := s.Cables()
	// 2×28 local + 32 global cables between the two nodes.
	if st.ByKind[Local] != 56 || st.ByKind[Global] != 32 {
		t.Fatalf("cables = %+v", st)
	}
	// Every TSP now has 7 local + 4 global links.
	for tsp := TSPID(0); tsp < 16; tsp++ {
		if len(s.Out(tsp)) != 11 {
			t.Fatalf("TSP %d has %d links, want 11", tsp, len(s.Out(tsp)))
		}
	}
	if d := s.Diameter(); d > 3 {
		t.Fatalf("2-node diameter = %d, want <= 3", d)
	}
}

func TestMaxAllToAllSystem(t *testing.T) {
	s := mustNew(t, 33)
	if s.NumTSPs() != 264 {
		t.Fatalf("TSPs = %d, want 264", s.NumTSPs())
	}
	// §2.2: three-hop topology with minimal routing at 264 TSPs.
	if d := s.Diameter(); d != 3 {
		t.Fatalf("264-TSP diameter = %d, want 3", d)
	}
	if s.PackagingDiameter() != 3 {
		t.Fatal("packaging diameter should be 3")
	}
	// Each node pair gets exactly ⌊32/32⌋ = 1 cable.
	st := s.Cables()
	wantGlobal := 33 * 32 / 2
	if st.ByKind[Global] != wantGlobal {
		t.Fatalf("global cables = %d, want %d", st.ByKind[Global], wantGlobal)
	}
	if s.Eccentricity(0) < 0 {
		t.Fatal("disconnected")
	}
}

func TestIntermediateAllToAll(t *testing.T) {
	// 9 nodes: 4 parallel cables per node pair.
	s := mustNew(t, 9)
	cables := s.Between(TSPID(0), TSPID(0)) // self: none
	if cables != nil {
		t.Fatal("self links exist")
	}
	// Count cables between node 0 and node 1 across all TSP pairs.
	count := 0
	for _, l := range s.Links() {
		if l.ID > l.Reverse || l.Kind != Global {
			continue
		}
		if l.From.Node() == 0 && l.To.Node() == 1 || l.From.Node() == 1 && l.To.Node() == 0 {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("node 0-1 cables = %d, want 4", count)
	}
	if d := s.Diameter(); d > 3 {
		t.Fatalf("diameter = %d, want <= 3", d)
	}
}

func TestRackRegimeValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 40}); err == nil {
		t.Fatal("non-whole-rack node count should fail")
	}
	if _, err := New(Config{Nodes: 146 * 9}); err == nil {
		t.Fatal("more than 145 racks should fail")
	}
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes should fail")
	}
}

func TestRackDragonflySmall(t *testing.T) {
	// 4 racks = 36 nodes = 288 TSPs.
	s := mustNew(t, 36)
	if s.Regime() != RackDragonfly {
		t.Fatal("regime")
	}
	if s.NumRacks() != 4 {
		t.Fatalf("racks = %d", s.NumRacks())
	}
	st := s.Cables()
	// Per rack: 36 node pairs × 2 = 72 group cables.
	if st.ByKind[Group] != 4*72 {
		t.Fatalf("group cables = %d, want %d", st.ByKind[Group], 4*72)
	}
	// Inter-rack: ⌊144/3⌋ = 48 cables per rack pair × 6 pairs.
	if st.ByKind[Global] != 48*6 {
		t.Fatalf("global cables = %d, want %d", st.ByKind[Global], 48*6)
	}
	// Inter-rack cables are optical; the rest electrical (§2.3).
	if st.Optical != st.ByKind[Global] {
		t.Fatalf("optical = %d, want %d", st.Optical, st.ByKind[Global])
	}
	if s.Eccentricity(0) < 0 {
		t.Fatal("disconnected")
	}
	if s.PackagingDiameter() != 5 {
		t.Fatal("rack-regime packaging diameter should be 5")
	}
	// TSP-level worst case may exceed 5 (extra local hop inside gateway
	// nodes) but must stay small.
	if d := s.Diameter(); d < 4 || d > 7 {
		t.Fatalf("TSP-level diameter = %d, want 4..7", d)
	}
}

func TestCableShareMatchesPaper(t *testing.T) {
	// §2.3: "73% of the cables (44 of 60 cables used by each node)
	// short and inexpensive" — counting the cables attached to one node:
	// 28 intra-node + 16 intra-rack electrical out of 60 total.
	s := mustNew(t, 9*9) // 9 racks, so every port class is populated
	attached, electrical := 0, 0
	for _, l := range s.Links() {
		if l.ID > l.Reverse {
			continue // one count per cable
		}
		if l.From.Node() != 0 && l.To.Node() != 0 {
			continue
		}
		attached++
		if l.Cable.Media == c2c.Electrical {
			electrical++
		}
	}
	if attached != 60 {
		t.Fatalf("node 0 has %d cables, want 60 (28 local + 16 group + 16 inter-rack)", attached)
	}
	if electrical != 44 {
		t.Fatalf("node 0 electrical cables = %d, want 44", electrical)
	}
	frac := float64(electrical) / float64(attached)
	if frac < 0.72 || frac > 0.74 {
		t.Fatalf("electrical share = %.3f, want ~0.733", frac)
	}
}

func TestPortBudgetNeverExceeded(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5, 9, 17, 33, 36, 81, 9 * 29} {
		s := mustNew(t, nodes)
		local := map[TSPID]int{}
		global := map[TSPID]int{}
		for _, l := range s.Links() {
			if l.ID > l.Reverse {
				continue
			}
			if l.Kind == Local {
				local[l.From]++
				local[l.To]++
			} else {
				global[l.From]++
				global[l.To]++
			}
		}
		for tsp, c := range local {
			if c > LocalLinksPerTSP {
				t.Fatalf("%d nodes: TSP %d local links %d", nodes, tsp, c)
			}
		}
		for tsp, c := range global {
			if c > GlobalLinksPerTSP {
				t.Fatalf("%d nodes: TSP %d global links %d", nodes, tsp, c)
			}
		}
	}
}

func TestFullScaleSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build in -short mode")
	}
	s := mustNew(t, MaxRacks*NodesPerRack)
	if s.NumTSPs() != 10440 {
		t.Fatalf("TSPs = %d, want 10,440", s.NumTSPs())
	}
	// One cable per rack pair at maximum scale.
	st := s.Cables()
	if want := 145 * 144 / 2; st.ByKind[Global] != want {
		t.Fatalf("inter-rack cables = %d, want %d", st.ByKind[Global], want)
	}
	if s.Eccentricity(0) < 0 {
		t.Fatal("full system disconnected")
	}
}

// TestLinksAreMirrored checks every link has its mirror, that Port
// numbers each link by its place in Out, and that PortTo names the first
// of the parallel cables Between lists.
func TestLinksAreMirrored(t *testing.T) {
	for _, cfg := range []Config{{Nodes: 1}, {Nodes: 1, LocalWiring: TripleRing}, {Nodes: 3}, {Nodes: 9}} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range s.Links() {
			r := s.Link(l.Reverse)
			if r.From != l.To || r.To != l.From || r.Reverse != l.ID {
				t.Fatalf("%v: link %d not mirrored: %+v / %+v", s, l.ID, l, r)
			}
			if r.Kind != l.Kind || r.Cable != l.Cable {
				t.Fatalf("%v: mirror link config mismatch", s)
			}
			if out := s.Out(l.From); out[s.Port(l.ID)] != l.ID {
				t.Fatalf("%v: link %d has port %d, but Out(%d)[%d] = %d", s, l.ID, s.Port(l.ID), l.From, s.Port(l.ID), out[s.Port(l.ID)])
			}
		}
		for a := TSPID(0); int(a) < s.NumTSPs(); a++ {
			for b := TSPID(0); int(b) < s.NumTSPs(); b++ {
				port, ok := s.PortTo(a, b)
				between := s.Between(a, b)
				if ok != (len(between) > 0) {
					t.Fatalf("%v: PortTo(%d, %d) ok = %v, Between has %d links", s, a, b, ok, len(between))
				}
				if ok && s.Out(a)[port] != between[0] {
					t.Fatalf("%v: PortTo(%d, %d) = %d names link %d, Between starts with %d", s, a, b, port, s.Out(a)[port], between[0])
				}
			}
		}
	}
}

func TestBetweenConsistent(t *testing.T) {
	s := mustNew(t, 2)
	for _, l := range s.Links() {
		found := false
		for _, id := range s.Between(l.From, l.To) {
			if id == l.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("link %d missing from Between", l.ID)
		}
	}
	if s.Between(0, 0) != nil {
		t.Fatal("self adjacency")
	}
}

func TestTSPIDHelpers(t *testing.T) {
	tsp := TSPID(75) // node 9, local index 3
	if tsp.Node() != 9 || tsp.LocalIndex() != 3 {
		t.Fatalf("TSP 75: node %d idx %d", tsp.Node(), tsp.LocalIndex())
	}
	if NodeID(10).Rack() != 1 {
		t.Fatal("node 10 should be rack 1")
	}
}

func TestKindAndRegimeStrings(t *testing.T) {
	if Local.String() != "local" || Group.String() != "group" || Global.String() != "global" {
		t.Fatal("kind strings")
	}
	if SingleNode.String() == "" || AllToAll.String() == "" || RackDragonfly.String() == "" {
		t.Fatal("regime strings")
	}
	s := mustNew(t, 2)
	if s.String() == "" {
		t.Fatal("system string")
	}
}

func TestIntraNodeCableConfig(t *testing.T) {
	s := mustNew(t, 1)
	for _, l := range s.Links() {
		if l.Cable != c2c.IntraNode() {
			t.Fatal("intra-node links must use the 0.75m electrical cable")
		}
	}
}
