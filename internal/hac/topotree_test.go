package hac

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/topo"
)

func buildSys(t *testing.T, nodes int) *topo.System {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildFromTopologyCoversAllTSPs(t *testing.T) {
	sys := buildSys(t, 2)
	rng := sim.NewRNG(3)
	devs := SystemClocks(sys, clock.DefaultDrift, rng)
	tree := BuildFromTopology(sys, devs, 0, rng, 1000, nil)
	// The tree must reach all 16 devices: count distinct children + root.
	seen := map[int]bool{0: true}
	edges := 0
	for _, level := range tree.Levels {
		for _, e := range level {
			if seen[e.Child.ID] {
				t.Fatalf("device %d has two parents", e.Child.ID)
			}
			seen[e.Child.ID] = true
			edges++
		}
	}
	if len(seen) != 16 || edges != 15 {
		t.Fatalf("tree covers %d devices with %d edges, want 16/15", len(seen), edges)
	}
	// Tree height equals the BFS eccentricity of the root.
	if len(tree.Levels) != sys.Eccentricity(0) {
		t.Fatalf("height %d != eccentricity %d", len(tree.Levels), sys.Eccentricity(0))
	}
}

func TestBuildFromTopologyUsesCableClasses(t *testing.T) {
	sys := buildSys(t, 36) // rack regime: local, group, and optical links
	rng := sim.NewRNG(4)
	devs := SystemClocks(sys, clock.DefaultDrift, rng)
	tree := BuildFromTopology(sys, devs, 0, rng, 200, nil)
	// Some edge must be longer-latency than intra-node (group/global
	// cable), proving cable classes flow into the tree.
	shortest, longest := int64(1<<62), int64(0)
	for _, level := range tree.Levels {
		for _, e := range level {
			if e.CharLatency < shortest {
				shortest = e.CharLatency
			}
			if e.CharLatency > longest {
				longest = e.CharLatency
			}
		}
	}
	if longest-shortest < 50 {
		t.Fatalf("expected mixed cable classes: latencies %d..%d", shortest, longest)
	}
}

// TestSystemSyncNode brings up a full 8-TSP node from cold: characterize,
// align, and start — the complete §3 story in one call.
func TestSystemSyncNode(t *testing.T) {
	sys := buildSys(t, 1)
	ar, ps := SystemSync(sys, 42, 5000, nil)
	if !ar.Converged {
		t.Fatalf("alignment failed: %+v", ar)
	}
	if len(ps.Starts) != 8 {
		t.Fatalf("starts = %d", len(ps.Starts))
	}
	if ps.Spread > 30*sim.Nanosecond {
		t.Fatalf("program start spread %v", ps.Spread)
	}
}

// TestSystemSyncMultiNode verifies the multi-hop tree still yields a tight
// simultaneous start: 3 nodes, up to 3 network hops.
func TestSystemSyncMultiNode(t *testing.T) {
	sys := buildSys(t, 3)
	ar, ps := SystemSync(sys, 7, 5000, nil)
	if !ar.Converged {
		t.Fatalf("alignment failed: %+v", ar)
	}
	if len(ps.Starts) != 24 {
		t.Fatalf("starts = %d", len(ps.Starts))
	}
	// Residual error compounds per tree level; stay within a few link
	// jitters.
	if ps.Spread > 60*sim.Nanosecond {
		t.Fatalf("program start spread %v", ps.Spread)
	}
	// Overhead respects the paper's (⌊L/period⌋+1)·h bound within
	// rounding (+1 arming epoch, +1 boundary rounding per hop).
	bound := SyncOverheadCycles(260, tree3Height(sys)) + 2*Period
	if ps.OverheadCycles > bound+int64(tree3Height(sys))*Period {
		t.Fatalf("overhead %d cycles exceeds bound %d", ps.OverheadCycles, bound)
	}
}

func tree3Height(sys *topo.System) int { return sys.Eccentricity(0) }

func TestSystemSyncDeterministic(t *testing.T) {
	sys := buildSys(t, 1)
	ar1, ps1 := SystemSync(sys, 99, 2000, nil)
	ar2, ps2 := SystemSync(sys, 99, 2000, nil)
	if ar1.Iterations != ar2.Iterations || ps1.Spread != ps2.Spread {
		t.Fatal("same-seed system sync differs")
	}
}
