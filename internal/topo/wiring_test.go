package topo

import "testing"

func TestTripleRingCableBudget(t *testing.T) {
	s, err := New(Config{Nodes: 1, LocalWiring: TripleRing})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Cables()
	// 8 ring positions × 3 cables + 4 cross links = 28, same budget as
	// fully connected.
	if st.Total != 28 {
		t.Fatalf("cables = %d, want 28", st.Total)
	}
	// Every TSP uses exactly 7 local links.
	for tsp := TSPID(0); tsp < 8; tsp++ {
		if got := len(s.Out(tsp)); got != 7 {
			t.Fatalf("TSP %d has %d links", tsp, got)
		}
	}
}

func TestTripleRingNearestNeighborBandwidth(t *testing.T) {
	ring, err := New(Config{Nodes: 1, LocalWiring: TripleRing})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// §4.4: triple-connecting the ring gives 3x nearest-neighbor
	// throughput for pipelined model parallelism.
	if got := len(ring.Between(0, 1)); got != 3 {
		t.Fatalf("ring neighbor cables = %d, want 3", got)
	}
	if got := len(full.Between(0, 1)); got != 1 {
		t.Fatalf("full-connectivity neighbor cables = %d, want 1", got)
	}
	// Cross link present at the antipode.
	if got := len(ring.Between(0, 4)); got != 1 {
		t.Fatalf("antipodal cables = %d, want 1", got)
	}
	// Non-adjacent pairs have no direct link in the ring wiring.
	if got := len(ring.Between(0, 2)); got != 0 {
		t.Fatalf("ring 0-2 should not be adjacent, got %d cables", got)
	}
}

func TestTripleRingDiameter(t *testing.T) {
	s, err := New(Config{Nodes: 1, LocalWiring: TripleRing})
	if err != nil {
		t.Fatal(err)
	}
	// Ring + antipodal cross: any TSP reachable within 2 hops.
	if d := s.Diameter(); d != 2 {
		t.Fatalf("triple-ring diameter = %d, want 2", d)
	}
	if s.Eccentricity(0) < 0 {
		t.Fatal("disconnected")
	}
}

func TestTripleRingScalesOut(t *testing.T) {
	// The ring wiring composes with the global layers unchanged.
	s, err := New(Config{Nodes: 4, LocalWiring: TripleRing})
	if err != nil {
		t.Fatal(err)
	}
	if s.Eccentricity(0) < 0 {
		t.Fatal("disconnected")
	}
	if d := s.Diameter(); d > 5 {
		t.Fatalf("diameter = %d", d)
	}
}

func TestWiringString(t *testing.T) {
	if FullyConnected.String() != "fully-connected" || TripleRing.String() != "triple-ring" {
		t.Fatal("wiring strings")
	}
}
