package workloads

import (
	"testing"

	"repro/internal/topo"
)

// TestSec44RingWinsSteadyState reproduces §4.4's rationale: with all eight
// boundaries streaming concurrently (pipeline steady state), the
// triple-connected ring's dedicated cables beat the fully connected
// wiring, whose single cable per boundary plus contended detours
// serializes.
func TestSec44RingWinsSteadyState(t *testing.T) {
	const act = 1 << 20
	ring, err := PipelineSteadyState(topo.TripleRing, act)
	if err != nil {
		t.Fatal(err)
	}
	full, err := PipelineSteadyState(topo.FullyConnected, act)
	if err != nil {
		t.Fatal(err)
	}
	if ring >= full {
		t.Fatalf("ring %d cycles should beat fully connected %d under steady-state pipeline", ring, full)
	}
	// Both wirings spend the same 28 cables, so the aggregate capacity is
	// equal; the ring's edge is that its traffic needs no 2-hop detours
	// (which burn two link slots per vector and couple the boundaries).
	// The model shows a ~1.2x advantage.
	ratio := float64(full) / float64(ring)
	if ratio < 1.1 {
		t.Fatalf("ring advantage %.2fx, want >1.1x", ratio)
	}
}

// TestSmallTensorsDontCare: below the spreading crossover both wirings
// deliver a boundary in about one hop.
func TestSmallTensorsDontCare(t *testing.T) {
	ring, err := PipelineSteadyState(topo.TripleRing, 2048)
	if err != nil {
		t.Fatal(err)
	}
	full, err := PipelineSteadyState(topo.FullyConnected, 2048)
	if err != nil {
		t.Fatal(err)
	}
	diff := ring - full
	if diff < 0 {
		diff = -diff
	}
	if diff > 200 {
		t.Fatalf("small-tensor gap %d cycles too large (ring %d, full %d)", diff, ring, full)
	}
}
