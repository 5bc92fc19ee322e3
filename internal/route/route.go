// Package route implements the deterministic load-balancing decisions of
// paper §4.3: given a tensor's size and the path diversity between source
// and destination, split the tensor's 320-byte vectors across the minimal
// path and some number of non-minimal paths so that overall completion time
// is minimized — at compile time, with no hardware adaptivity.
//
// The core latency model: a path of h hops delivers n vectors in
// h·Hop + n·Slot cycles under virtual cut-through (the head incurs the full
// hop latency; subsequent vectors stream behind it at the link's
// serialization rate). Balancing completion across a 1-hop minimal path and
// k 2-hop non-minimal paths yields the paper's Fig 10 behaviour, including
// the ~8 KB crossover below which non-minimal routing cannot help.
package route

import (
	"fmt"

	"repro/internal/c2c"
	"repro/internal/topo"
)

// Model constants.
const (
	// HopCycles is the per-hop forwarding latency (§5.6: 722 ns ≈ 650
	// cycles at 900 MHz).
	HopCycles = 650
	// SlotCycles is the link occupancy of one vector (c2c).
	SlotCycles = c2c.VectorSlotCycles
	// VectorBytes is the flit size.
	VectorBytes = c2c.VectorBytes
)

// PathCompletionCycles returns the time to deliver n vectors over a path of
// h hops under virtual cut-through flow control. Zero vectors take zero
// time.
func PathCompletionCycles(hops, n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(hops)*HopCycles + int64(n)*SlotCycles
}

// Split is a deterministic allocation of a tensor's vectors to paths.
type Split struct {
	// Minimal is the number of vectors on the minimal (1-hop) path.
	Minimal int
	// NonMinimal[i] is the number of vectors on the i-th 2-hop path.
	NonMinimal []int
}

// CompletionCycles returns the completion time of the split: the slowest
// path's completion.
func (s Split) CompletionCycles() int64 {
	worst := PathCompletionCycles(1, s.Minimal)
	for _, n := range s.NonMinimal {
		if c := PathCompletionCycles(2, n); c > worst {
			worst = c
		}
	}
	return worst
}

// OptimalSplit allocates vectors vectors across the minimal path and k
// non-minimal 2-hop paths to minimize completion time. It never produces a
// split worse than minimal-only: for small tensors the optimum is all
// vectors minimal (the Fig 10 "no benefit below ~8 KB" regime).
func OptimalSplit(vectors, k int) Split {
	if vectors < 0 {
		panic("route: negative vector count")
	}
	if k < 0 {
		panic("route: negative path count")
	}
	best := Split{Minimal: vectors, NonMinimal: make([]int, k)}
	if k == 0 || vectors == 0 {
		return best
	}
	bestC := best.CompletionCycles()
	// The continuous optimum puts m = (V·Slot + k·Hop)/((k+1)·Slot) on
	// the minimal path; search integer allocations around it for every
	// prefix of the path set (using fewer than k paths can win when the
	// tensor is small).
	for used := 1; used <= k; used++ {
		mStar := (int64(vectors)*SlotCycles + int64(used)*HopCycles) /
			(int64(used+1) * SlotCycles)
		for dm := int64(-2); dm <= 2; dm++ {
			m := mStar + dm
			if m < 0 {
				m = 0
			}
			if m > int64(vectors) {
				m = int64(vectors)
			}
			s := spreadRest(vectors, int(m), used, k)
			if c := s.CompletionCycles(); c < bestC {
				best, bestC = s, c
			}
		}
	}
	return best
}

// spreadRest builds a split with m vectors minimal and the remainder spread
// evenly over the first `used` non-minimal paths (of k total).
func spreadRest(vectors, m, used, k int) Split {
	rest := vectors - m
	s := Split{Minimal: m, NonMinimal: make([]int, k)}
	for i := 0; i < used; i++ {
		share := rest / used
		if i < rest%used {
			share++
		}
		s.NonMinimal[i] = share
	}
	return s
}

// OptimalSplitShared allocates vectors across the minimal path and k
// detour paths when `sharedBy` senders converge on the same destination
// and share those detour links' slots. Each detour link ultimately carries
// sharedBy·n vectors, so the balance point shifts toward the (private)
// minimal path: m·Slot ≈ sharedBy·n·Slot + Hop. sharedBy=1 reduces to
// OptimalSplit.
func OptimalSplitShared(vectors, k, sharedBy int) Split {
	if sharedBy <= 1 || k == 0 || vectors == 0 {
		return OptimalSplit(vectors, k)
	}
	best := Split{Minimal: vectors, NonMinimal: make([]int, k)}
	bestC := sharedCompletion(best, sharedBy)
	for used := 1; used <= k; used++ {
		// Continuous optimum: V = sharedBy·n + Hop/Slot + used·n.
		n := (int64(vectors) - HopCycles/SlotCycles) /
			int64(sharedBy+used)
		for dn := int64(-2); dn <= 2; dn++ {
			ni := n + dn
			if ni < 0 {
				ni = 0
			}
			if int(ni)*used > vectors {
				continue
			}
			s := Split{Minimal: vectors - int(ni)*used, NonMinimal: make([]int, k)}
			for i := 0; i < used; i++ {
				s.NonMinimal[i] = int(ni)
			}
			if c := sharedCompletion(s, sharedBy); c < bestC {
				best, bestC = s, c
			}
		}
	}
	return best
}

// sharedCompletion is the completion time of a split whose detour links
// are shared by `sharedBy` equal senders.
func sharedCompletion(s Split, sharedBy int) int64 {
	worst := PathCompletionCycles(1, s.Minimal)
	for _, n := range s.NonMinimal {
		if c := PathCompletionCycles(2, n*sharedBy); c > worst {
			worst = c
		}
	}
	return worst
}

// Speedup returns the completion-time ratio of minimal-only routing to the
// optimal split: the Fig 10 y-axis. It is 1.0 below the crossover.
func Speedup(msgBytes, nonMinimalPaths int) float64 {
	vectors := (msgBytes + VectorBytes - 1) / VectorBytes
	if vectors == 0 {
		return 1
	}
	minOnly := PathCompletionCycles(1, vectors)
	opt := OptimalSplit(vectors, nonMinimalPaths).CompletionCycles()
	return float64(minOnly) / float64(opt)
}

// CrossoverBytes returns the smallest message size at which k non-minimal
// paths yield any benefit: V·Slot must exceed the extra hop latency.
func CrossoverBytes() int {
	vectors := HopCycles/SlotCycles + 1
	return vectors * VectorBytes
}

// VectorRoute is the compile-time route of one vector: the ordered links it
// traverses.
type VectorRoute struct {
	Path  topo.Path
	Links []topo.LinkID
}

// SpreadOpts tunes the §4.3 load-balancing decision with the compiler's
// global knowledge of concurrent traffic.
type SpreadOpts struct {
	// AllowNonMinimal enables detour paths at all. The compiler
	// disables spreading for patterns (like an all-to-all collective)
	// where every link already carries minimal traffic and detours
	// would only steal slots from other tensors.
	AllowNonMinimal bool
	// Intermediate, when non-nil, filters which TSPs may serve as
	// detour hops (the compiler excludes sibling senders, whose egress
	// links are busy with their own minimal streams).
	Intermediate func(topo.TSPID) bool
	// SharedBy is the number of tensors converging on this destination
	// and sharing the detour links' slots (≥1). The split shifts toward
	// the private minimal path accordingly.
	SharedBy int
}

// SpreadTensor deterministically assigns each of a tensor's vectors to a
// route: the optimal split across the minimal path and the non-minimal
// paths opts allows between src and dst. All TSPs compute the identical
// assignment from the same static inputs — this is what "deterministic
// load balancing" means in §4.3.
func SpreadTensor(sys *topo.System, src, dst topo.TSPID, vectors int, opts SpreadOpts) ([]VectorRoute, error) {
	if src == dst {
		return nil, fmt.Errorf("route: src == dst")
	}
	minPaths := sys.MinimalPaths(src, dst, 1)
	if len(minPaths) == 0 {
		return nil, fmt.Errorf("route: no path %d→%d", src, dst)
	}
	minimal := minPaths[0]

	routes := make([]VectorRoute, 0, vectors)
	emit := func(p topo.Path, n int) {
		// Consecutive vectors rotate across parallel cables on every
		// hop (§4.3's spreading applies to cable-level diversity too:
		// a node pair with c cables carries c vectors per slot).
		for i := 0; i < n; i++ {
			routes = append(routes, VectorRoute{Path: p, Links: sys.PathLinks(p, i)})
		}
	}

	if minimal.Hops() > 1 {
		// Multi-hop minimal routes: spread across the equal-length
		// minimal paths through different gateways, exactly as
		// "conventional networks spread packets within a message
		// across the available up links" (§4.3) — here resolved at
		// compile time. Intermediate-disjoint paths avoid coupling.
		// These are all *minimal* paths, so MinimalOnly transfers
		// spread too — the option only bans detours.
		paths := sys.MinimalDisjointPaths(src, dst)
		if len(paths) > 1 {
			base := vectors / len(paths)
			extra := vectors % len(paths)
			for i, p := range paths {
				n := base
				if i < extra {
					n++
				}
				emit(p, n)
			}
		} else {
			emit(minimal, vectors)
		}
		return routes, nil
	}

	var nonMin []topo.Path
	if opts.AllowNonMinimal {
		for _, p := range sys.NonMinimalPaths(src, dst) {
			if opts.Intermediate == nil || opts.Intermediate(p[1]) {
				nonMin = append(nonMin, p)
			}
		}
	}
	split := OptimalSplitShared(vectors, len(nonMin), max(opts.SharedBy, 1))
	emit(minimal, split.Minimal)
	for i, n := range split.NonMinimal {
		emit(nonMin[i], n)
	}
	return routes, nil
}
