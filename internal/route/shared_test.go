package route

import (
	"testing"

	"repro/internal/topo"
)

func TestOptimalSplitSharedReducesDetourLoad(t *testing.T) {
	// With 4 senders sharing the detours, each sender's detour share
	// shrinks relative to the exclusive split.
	exclusive := OptimalSplit(4000, 3)
	shared := OptimalSplitShared(4000, 3, 4)
	if total(shared) != 4000 || total(exclusive) != 4000 {
		t.Fatal("vector conservation")
	}
	exDetour, shDetour := 0, 0
	for i := range exclusive.NonMinimal {
		exDetour += exclusive.NonMinimal[i]
		shDetour += shared.NonMinimal[i]
	}
	if shDetour >= exDetour {
		t.Fatalf("shared split should push load to the private minimal path: %d vs %d",
			shDetour, exDetour)
	}
	if shared.Minimal <= exclusive.Minimal {
		t.Fatal("shared split should grow the minimal share")
	}
}

func TestOptimalSplitSharedDegenerates(t *testing.T) {
	// sharedBy=1 is exactly the exclusive split.
	a := OptimalSplit(1234, 5)
	b := OptimalSplitShared(1234, 5, 1)
	if a.Minimal != b.Minimal {
		t.Fatalf("sharedBy=1 differs: %d vs %d", a.Minimal, b.Minimal)
	}
	// Zero paths or vectors.
	if s := OptimalSplitShared(100, 0, 4); s.Minimal != 100 {
		t.Fatal("no detours → all minimal")
	}
	if s := OptimalSplitShared(0, 3, 4); total(s) != 0 {
		t.Fatal("zero vectors")
	}
}

func TestOptimalSplitSharedCompletionModel(t *testing.T) {
	// The shared completion must account for sharedBy on the detours.
	s := Split{Minimal: 10, NonMinimal: []int{5}}
	solo := sharedCompletion(s, 1)
	four := sharedCompletion(s, 4)
	if four <= solo {
		t.Fatal("sharing must lengthen detour completion")
	}
	if want := PathCompletionCycles(2, 20); four != want {
		t.Fatalf("shared detour completion = %d, want %d", four, want)
	}
}

func TestSpreadTensorWithIntermediateFilter(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ban every intermediate: forced minimal-only even for big tensors.
	routes, err := SpreadTensor(sys, 0, 7, 1000, SpreadOpts{
		AllowNonMinimal: true,
		Intermediate:    func(topo.TSPID) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if r.Path.Hops() != 1 {
			t.Fatal("filter ignored")
		}
	}
	// Allow only TSP 3 as an intermediate: detours all pass through 3.
	routes, err = SpreadTensor(sys, 0, 7, 1000, SpreadOpts{
		AllowNonMinimal: true,
		Intermediate:    func(x topo.TSPID) bool { return x == 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sawDetour := false
	for _, r := range routes {
		if r.Path.Hops() == 2 {
			sawDetour = true
			if r.Path[1] != 3 {
				t.Fatalf("detour through %d, want 3", r.Path[1])
			}
		}
	}
	if !sawDetour {
		t.Fatal("expected detours through the allowed intermediate")
	}
}

func TestSpreadTensorParallelCableRotation(t *testing.T) {
	// A 9-node system has 4 parallel cables per node pair; consecutive
	// vectors must rotate across them.
	sys, err := topo.New(topo.Config{Nodes: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Find two TSPs in different nodes connected via a multi-cable
	// gateway pair. Use a multi-hop route and check link diversity on
	// some hop.
	routes, err := SpreadTensor(sys, 0, 71, 12, SpreadOpts{AllowNonMinimal: true})
	if err != nil {
		t.Fatal(err)
	}
	used := map[topo.LinkID]bool{}
	for _, r := range routes {
		for _, l := range r.Links {
			used[l] = true
		}
	}
	// With cable rotation, more distinct links appear than a single
	// fixed path would use (path length ≤ 3).
	if len(used) <= 3 {
		t.Fatalf("only %d distinct links used; cable rotation missing", len(used))
	}
}

func TestSpreadTensorErrorsOnDisconnected(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpreadTensor(sys, 0, 0, 5, SpreadOpts{}); err == nil {
		t.Fatal("src==dst must error")
	}
}

func TestVectorRouteLinksMatchPath(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := SpreadTensor(sys, 2, 6, 200, SpreadOpts{AllowNonMinimal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if len(r.Links) != r.Path.Hops() {
			t.Fatal("link count mismatch")
		}
		for h, l := range r.Links {
			link := sys.Link(l)
			if link.From != r.Path[h] || link.To != r.Path[h+1] {
				t.Fatalf("hop %d link endpoints wrong", h)
			}
		}
	}
}
