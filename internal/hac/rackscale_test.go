package hac

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestSystemSyncRackScale brings up a 4-rack, 288-TSP system from cold:
// the BFS spanning tree crosses local, group, and optical inter-rack
// cables, and every TSP must still start within the compounded jitter
// neighborhood.
func TestSystemSyncRackScale(t *testing.T) {
	if testing.Short() {
		t.Skip("rack-scale bring-up in -short mode")
	}
	sys, err := topo.New(topo.Config{Nodes: 36})
	if err != nil {
		t.Fatal(err)
	}
	ar, ps := SystemSync(sys, 2024, 1000, nil)
	if !ar.Converged {
		t.Fatalf("rack-scale alignment failed: %+v", ar)
	}
	if len(ps.Starts) != 288 {
		t.Fatalf("starts = %d, want 288", len(ps.Starts))
	}
	// Residual error compounds per tree level (height = eccentricity,
	// ≤7); each level contributes roughly one jitter neighborhood.
	height := sys.Eccentricity(0)
	budget := sim.Time(height+2) * 35 * sim.Nanosecond
	if ps.Spread > budget {
		t.Fatalf("start spread %v exceeds per-level budget %v (height %d)",
			ps.Spread, budget, height)
	}
	// The paper's overhead accounting holds: (⌊L/period⌋+1)·h epochs
	// plus arming/rounding. Optical links exceed one period (≈300
	// cycles), so k=2 epochs per hop on those levels is legal.
	if ps.OverheadCycles > int64(height+2)*2*Period+2*Period {
		t.Fatalf("overhead %d cycles too large for height %d", ps.OverheadCycles, height)
	}
}
