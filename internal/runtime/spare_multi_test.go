package runtime

import (
	"testing"

	"repro/internal/topo"
)

// Per-rack sparing: 18 nodes = 2 racks, one spare each (nodes 8 and 17),
// surviving one node failure per rack with rack-local failovers.
func TestAllocationPerRackSpares(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 18})
	if err != nil {
		t.Fatalf("topo.New: %v", err)
	}
	a, err := NewAllocationWithPolicy(sys, 16*topo.TSPsPerNode, SparePerRack)
	if err != nil {
		t.Fatalf("NewAllocationWithPolicy: %v", err)
	}
	if len(a.spares) != 2 {
		t.Fatalf("spares = %v, want 2", a.spares)
	}
	if got := float64(len(a.spares)) / float64(a.sys.NumNodes()); got < 0.11 || got > 0.112 {
		t.Errorf("per-rack overhead = %v, want ~1/9", got)
	}
	// Packing skips the spare nodes: devices land on nodes 0–7 and 9–16.
	if got := a.TSPOf(0); got != 0 {
		t.Errorf("device 0 on TSP %d", got)
	}
	// Device 64 is the first on the second rack's first node (node 9).
	if got := a.TSPOf(64); got.Node() != 9 {
		t.Errorf("device 64 on node %d, want 9", got.Node())
	}

	// First failure: node 3 (rack 0) must fail over to rack 0's spare.
	if err := a.FailNode(3, nil); err != nil {
		t.Fatalf("FailNode(3): %v", err)
	}
	for d := 3 * topo.TSPsPerNode; d < 4*topo.TSPsPerNode; d++ {
		got := a.TSPOf(d)
		if got.Node() != 8 {
			t.Errorf("device %d on node %d, want rack-local spare 8", d, got.Node())
		}
		if got.LocalIndex() != d%topo.TSPsPerNode {
			t.Errorf("device %d lost its local index: %d", d, got.LocalIndex())
		}
	}
	if err := a.VerifyConnected(); err != nil {
		t.Fatalf("VerifyConnected after first failover: %v", err)
	}

	// Second, sequential failure in the other rack: node 12 → spare 17.
	if err := a.FailNode(12, nil); err != nil {
		t.Fatalf("FailNode(12): %v", err)
	}
	for d := 88; d < 88+topo.TSPsPerNode; d++ { // node 12 held devices 88–95
		if got := a.TSPOf(d); got.Node() != 17 {
			t.Errorf("device %d on node %d, want rack-local spare 17", d, got.Node())
		}
	}
	if err := a.VerifyConnected(); err != nil {
		t.Fatalf("VerifyConnected after second failover: %v", err)
	}

	// Both spares consumed: a third failure is unrecoverable.
	if len(a.spares) != 0 {
		t.Fatalf("spares %v remain after two failovers", a.spares)
	}
	if err := a.FailNode(5, nil); err == nil {
		t.Fatal("third failure should exhaust the spares")
	}
	// And the failed nodes stay failed.
	if err := a.FailNode(3, nil); err == nil {
		t.Fatal("re-failing node 3 should error")
	}
}

// Cross-rack fallback: when the failing node's rack has no spare left, the
// lowest-numbered remaining spare absorbs the devices.
func TestAllocationCrossRackSpareFallback(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 18})
	if err != nil {
		t.Fatalf("topo.New: %v", err)
	}
	a, err := NewAllocationWithPolicy(sys, 4*topo.TSPsPerNode, SparePerRack)
	if err != nil {
		t.Fatalf("NewAllocationWithPolicy: %v", err)
	}
	// Burn rack 0's spare with a rack-0 failure, then fail a second rack-0
	// node: its devices must land on rack 1's spare (node 17).
	if err := a.FailNode(0, nil); err != nil {
		t.Fatalf("FailNode(0): %v", err)
	}
	if err := a.FailNode(1, nil); err != nil {
		t.Fatalf("FailNode(1): %v", err)
	}
	for d := topo.TSPsPerNode; d < 2*topo.TSPsPerNode; d++ {
		if got := a.TSPOf(d); got.Node() != 17 {
			t.Errorf("device %d on node %d, want cross-rack spare 17", d, got.Node())
		}
	}
	if err := a.VerifyConnected(); err != nil {
		t.Fatalf("VerifyConnected after cross-rack failover: %v", err)
	}
}

// Failing an idle spare node removes it from the pool without remapping,
// but the last spare cannot be sacrificed.
func TestAllocationSpareNodeFailure(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 18})
	if err != nil {
		t.Fatalf("topo.New: %v", err)
	}
	a, err := NewAllocationWithPolicy(sys, 8, SparePerRack)
	if err != nil {
		t.Fatalf("NewAllocationWithPolicy: %v", err)
	}
	if err := a.FailNode(8, nil); err != nil {
		t.Fatalf("failing idle spare 8: %v", err)
	}
	if len(a.spares) != 1 || a.spares[0] != 17 {
		t.Fatalf("spares after retiring 8: %v, want [17]", a.spares)
	}
	if err := a.FailNode(17, nil); err == nil {
		t.Fatal("failing the last spare should error")
	}
	// The remaining spare still serves a real failure.
	if err := a.FailNode(0, nil); err != nil {
		t.Fatalf("FailNode(0): %v", err)
	}
	if got := a.TSPOf(0); got.Node() != 17 {
		t.Errorf("device 0 on node %d, want 17", got.Node())
	}
	if err := a.VerifyConnected(); err != nil {
		t.Fatalf("VerifyConnected: %v", err)
	}
}
