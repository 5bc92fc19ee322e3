package route

import (
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func TestPathCompletion(t *testing.T) {
	if PathCompletionCycles(1, 0) != 0 {
		t.Fatal("zero vectors take zero time")
	}
	// One vector, one hop: hop latency + one slot.
	if got := PathCompletionCycles(1, 1); got != HopCycles+SlotCycles {
		t.Fatalf("1 hop 1 vec = %d", got)
	}
	// Virtual cut-through: two hops add one hop latency, not 2× total.
	d1 := PathCompletionCycles(1, 100)
	d2 := PathCompletionCycles(2, 100)
	if d2-d1 != HopCycles {
		t.Fatalf("extra hop costs %d, want %d", d2-d1, HopCycles)
	}
}

func TestOptimalSplitSmallMessagesStayMinimal(t *testing.T) {
	// Below the crossover, every vector rides the minimal path.
	crossVecs := HopCycles / SlotCycles // 27
	for v := 1; v <= crossVecs; v++ {
		s := OptimalSplit(v, 7)
		if s.Minimal != v {
			t.Fatalf("%d vectors: split %+v, want all minimal", v, s)
		}
	}
}

func TestOptimalSplitLargeMessagesSpread(t *testing.T) {
	s := OptimalSplit(10_000, 7)
	if s.Minimal == 10_000 {
		t.Fatal("large tensor should spread")
	}
	if total(s) != 10_000 {
		t.Fatalf("split loses vectors: %d", total(s))
	}
	// The minimal path carries more than any non-minimal path (it has a
	// one-hop head start).
	for i, n := range s.NonMinimal {
		if n > s.Minimal {
			t.Fatalf("non-minimal path %d carries %d > minimal %d", i, n, s.Minimal)
		}
	}
	// With 7 extra paths the completion approaches 1/8 of minimal-only.
	minOnly := PathCompletionCycles(1, 10_000)
	ratio := float64(minOnly) / float64(s.CompletionCycles())
	if ratio < 6.5 || ratio > 8.0 {
		t.Fatalf("speedup = %.2f, want ~7.4", ratio)
	}
}

func TestOptimalSplitNeverWorseThanMinimal(t *testing.T) {
	if err := quick.Check(func(v16 uint16, k8 uint8) bool {
		v := int(v16)
		k := int(k8 % 8)
		s := OptimalSplit(v, k)
		return total(s) == v &&
			s.CompletionCycles() <= PathCompletionCycles(1, v)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSplitPanics(t *testing.T) {
	for _, f := range []func(){
		func() { OptimalSplit(-1, 3) },
		func() { OptimalSplit(5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

// TestFig10Crossover reproduces the paper's finding that messages below
// ~8 KB gain nothing from non-minimal routing.
func TestFig10Crossover(t *testing.T) {
	cb := CrossoverBytes()
	if cb < 7000 || cb > 10000 {
		t.Fatalf("crossover = %d bytes, want ~8-9 KB", cb)
	}
	// Below: speedup exactly 1 for any path count.
	for _, k := range []int{1, 3, 7} {
		if sp := Speedup(4096, k); sp != 1 {
			t.Fatalf("4KB with %d paths: speedup %.3f, want 1", k, sp)
		}
	}
	// Above: speedup grows with message size and path count.
	s64k1 := Speedup(64<<10, 1)
	s64k7 := Speedup(64<<10, 7)
	s1m7 := Speedup(1<<20, 7)
	if s64k1 <= 1.05 {
		t.Fatalf("64KB 1 path: speedup %.3f, want > 1", s64k1)
	}
	if s64k7 <= s64k1 {
		t.Fatal("more paths should help more at 64KB")
	}
	if s1m7 <= s64k7 {
		t.Fatal("benefit should grow with message size")
	}
	// Asymptote: k+1 fold.
	if s1m7 < 6.0 || s1m7 > 8.0 {
		t.Fatalf("1MB 7 paths: speedup %.2f, want ~7", s1m7)
	}
}

func TestFig10MonotoneInPaths(t *testing.T) {
	// At a fixed large size, speedup is non-decreasing in path count.
	prev := 0.0
	for k := 0; k <= 7; k++ {
		sp := Speedup(256<<10, k)
		if sp < prev {
			t.Fatalf("speedup not monotone at k=%d: %.3f < %.3f", k, sp, prev)
		}
		prev = sp
	}
}

func TestSpreadTensorWithinNode(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Large tensor: spreads over 1 minimal + 6 non-minimal routes.
	routes, err := SpreadTensor(sys, 0, 7, 1000, SpreadOpts{AllowNonMinimal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1000 {
		t.Fatalf("%d routes, want 1000", len(routes))
	}
	hopCount := map[int]int{}
	for _, r := range routes {
		hopCount[r.Path.Hops()]++
		if r.Path[0] != 0 || r.Path[len(r.Path)-1] != 7 {
			t.Fatal("route endpoints wrong")
		}
		if len(r.Links) != r.Path.Hops() {
			t.Fatal("links not resolved")
		}
	}
	if hopCount[1] == 0 || hopCount[2] == 0 {
		t.Fatalf("expected both minimal and non-minimal routes: %v", hopCount)
	}
	// Small tensor: minimal only.
	small, err := SpreadTensor(sys, 0, 7, 5, SpreadOpts{AllowNonMinimal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range small {
		if r.Path.Hops() != 1 {
			t.Fatal("small tensor should stay minimal")
		}
	}
}

func TestSpreadTensorDeterministic(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err1 := SpreadTensor(sys, 1, 6, 500, SpreadOpts{AllowNonMinimal: true})
	r2, err2 := SpreadTensor(sys, 1, 6, 500, SpreadOpts{AllowNonMinimal: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range r1 {
		if len(r1[i].Path) != len(r2[i].Path) {
			t.Fatal("spread not deterministic")
		}
		for j := range r1[i].Path {
			if r1[i].Path[j] != r2[i].Path[j] {
				t.Fatal("spread not deterministic")
			}
		}
	}
}

func TestSpreadTensorAcrossNodes(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := SpreadTensor(sys, 0, 15, 100, SpreadOpts{AllowNonMinimal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 100 {
		t.Fatal("route count")
	}
	// Multi-hop minimal paths: no intra-node non-minimal spreading, all
	// vectors take the minimal route.
	for _, r := range routes {
		if r.Path.Hops() > 3 {
			t.Fatalf("path too long: %v", r.Path)
		}
	}
}

func TestSpreadTensorErrors(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpreadTensor(sys, 3, 3, 10, SpreadOpts{AllowNonMinimal: true}); err == nil {
		t.Fatal("src==dst should error")
	}
}

// total is the number of vectors a split allocates.
func total(s Split) int {
	t := s.Minimal
	for _, n := range s.NonMinimal {
		t += n
	}
	return t
}
