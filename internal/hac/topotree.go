package hac

import (
	"repro/internal/c2c"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Topology-aware spanning trees: the paper distributes the common HAC
// reference over "a spanning tree of parent/child HAC relationships"
// (§3.1). This file builds that tree directly from a constructed system
// topology — BFS from the root TSP, so tree height equals the network
// eccentricity — and materializes the per-edge physical links with the
// correct cable class (local, group, or global).

// SystemClocks draws one drifting oscillator per TSP of the system.
func SystemClocks(sys *topo.System, drift clock.Drift, rng *sim.RNG) []*Device {
	devs := make([]*Device, sys.NumTSPs())
	for i := range devs {
		devs[i] = NewDevice(i, drift.Draw(rng, i))
	}
	return devs
}

// BuildFromTopology builds the HAC spanning tree rooted at the given TSP:
// a BFS tree over the physical topology, one Edge per tree link, each
// using a c2c link of the cable class the topology assigns to that hop.
// Every link is characterized with charIters reflect iterations,
// instrumented with rec.
func BuildFromTopology(sys *topo.System, devs []*Device, root topo.TSPID, rng *sim.RNG, charIters int, rec *obs.Recorder) *Tree {
	tree := &Tree{Root: devs[root], rec: rec}
	visited := make([]bool, sys.NumTSPs())
	visited[root] = true
	frontier := []topo.TSPID{root}
	for len(frontier) > 0 {
		var next []topo.TSPID
		var level []*Edge
		for _, u := range frontier {
			for _, lid := range sys.Out(u) {
				l := sys.Link(lid)
				if visited[l.To] {
					continue
				}
				visited[l.To] = true
				next = append(next, l.To)
				e := &Edge{
					Parent: devs[u],
					Child:  devs[l.To],
					Link:   c2c.New(l.Cable, rng.Fork(uint64(lid)+0x5eed)),
				}
				e.Link.Instrument(rec)
				e.Characterize(charIters)
				level = append(level, e)
			}
		}
		if len(level) > 0 {
			tree.Levels = append(tree.Levels, level)
		}
		frontier = next
	}
	return tree
}

// SystemSync brings up a whole system: build the tree, align every HAC,
// and perform the initial program start, recording into rec. It returns
// the alignment result and the program-start result.
func SystemSync(sys *topo.System, seed uint64, charIters int, rec *obs.Recorder) (AlignResult, TreeAlignmentResult) {
	rng := sim.NewRNG(seed)
	devs := SystemClocks(sys, clock.DefaultDrift, rng)
	tree := BuildFromTopology(sys, devs, 0, rng, charIters, rec)
	ar := tree.Align(0, 2, 12, 600)
	ps := AlignProgramStart(tree, ar.End)
	return ar, ps
}
