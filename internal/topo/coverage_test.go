package topo

import "testing"

func TestDistanceAvoiding(t *testing.T) {
	s := mustNew(t, 2)
	dead := func(x TSPID) bool { return false }
	// No faults: matches plain distance.
	if got := s.DistanceAvoiding(0, 9, dead); got != s.bfs(0)[9] {
		t.Fatalf("fault-free avoiding distance %d != %d", got, s.bfs(0)[9])
	}
	// Self distance is zero regardless.
	if s.DistanceAvoiding(3, 3, dead) != 0 {
		t.Fatal("self distance")
	}
	// Dead endpoint is unreachable.
	deadSeven := func(x TSPID) bool { return x == 7 }
	if s.DistanceAvoiding(0, 7, deadSeven) != -1 {
		t.Fatal("dead destination should be unreachable")
	}
	if s.DistanceAvoiding(7, 0, deadSeven) != -1 {
		t.Fatal("dead source should be unreachable")
	}
	// Killing an intermediate lengthens or preserves paths but the pair
	// stays connected (path diversity).
	deadMid := func(x TSPID) bool { return x >= 2 && x <= 5 }
	if got := s.DistanceAvoiding(0, 1, deadMid); got != 1 {
		t.Fatalf("direct link should survive: %d", got)
	}
	if got := s.DistanceAvoiding(0, 15, deadMid); got < 0 {
		t.Fatal("cross-node pair should survive intermediate faults")
	}
}

func TestPackagingDiameterSingleNode(t *testing.T) {
	if d := mustNew(t, 1).PackagingDiameter(); d != 1 {
		t.Fatalf("single-node packaging diameter = %d, want 1", d)
	}
}

func TestNumNodesAndRacks(t *testing.T) {
	s := mustNew(t, 3)
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	if s.NumRacks() != 0 {
		t.Fatal("sub-rack systems have no rack count")
	}
	r := mustNew(t, 36) // 18 nodes would still be all-to-all; racks need >33
	if r.NumRacks() != 4 {
		t.Fatalf("NumRacks = %d, want 4", r.NumRacks())
	}
}

func TestEccentricityDisconnectedSentinel(t *testing.T) {
	// A constructed system is always connected; exercise the -1 path via
	// DistanceAvoiding with everything dead instead.
	s := mustNew(t, 1)
	allDead := func(TSPID) bool { return true }
	if s.DistanceAvoiding(0, 5, allDead) != -1 {
		t.Fatal("all-dead should be unreachable")
	}
}

func TestMinimalDisjointPathsMultiHop(t *testing.T) {
	// Cross-node pairs in a 3-node system have multiple gateway choices;
	// disjoint selection must return >1 path and share no intermediates.
	s := mustNew(t, 3)
	paths := s.MinimalDisjointPaths(0, 20)
	if len(paths) < 2 {
		t.Fatalf("expected multiple disjoint gateway paths, got %d", len(paths))
	}
	seen := map[TSPID]bool{}
	for _, p := range paths {
		for _, x := range p[1 : len(p)-1] {
			if seen[x] {
				t.Fatal("intermediate reused")
			}
			seen[x] = true
		}
	}
}
