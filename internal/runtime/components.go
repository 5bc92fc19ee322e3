// Component execution: independent chip groups on their own heaps.
//
// The SSN compiler places every Send, so which chip can ever deliver to
// which is fixed before the run starts: chip a can feed chip b only over
// a link a's program names in a Send or Transmit (tsp.Chip.SendLinks).
// The connected components of that static send graph never exchange a
// vector. Each one is closed under delivery — every queue a component
// writes belongs to one of its own chips — so components can run to
// completion independently, each on its own sequential heap (runHeap),
// with no barrier between them. Their heaps are also
// shallower: a chip's batch horizon is the minimum next issue over its
// own component, not over the whole cluster.
//
// This is sound only on a clean fabric. A recorder shares one trace
// timeline, a fault plan one schedule of deaths and carrier losses, and a
// bit error rate one cluster-wide error RNG drawn in delivery order, and a
// checkpoint or series cadence captures the whole cluster at once, so
// those runs take the sequential executor (see Run).
//
// Faults follow a canonical abandonment point. Each component stops at
// its own earliest (cycle, chip) fault, settled exactly as RunSequential
// settles one (earliestFault), and Run reports the earliest across
// components — RunSequential's error and finish cycle. Chips in the other
// components have run to their own ends by then, which is where they stop
// at every worker count, so the abandoned state is worker-invariant.
package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// components partitions the chips with pending work into the connected
// components of the static send graph, each listed in ascending chip
// order and ordered by its lowest chip. New has checked that every send
// link names one of its chip's links.
func (cl *Cluster) components() (comps [][]int) {
	parent := cl.allChips()
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for src, chip := range cl.chips {
		for _, link := range chip.SendLinks() {
			a, b := find(src), find(int(cl.sys.Link(cl.routeIDs[src][link]).To))
			// The lower index becomes the root, so a root is its
			// component's lowest chip.
			parent[max(a, b)] = min(a, b)
		}
	}
	// slot[root] is 1 + the root's position in comps, 0 until seen.
	slot := make([]int, len(cl.chips))
	for i, chip := range cl.chips {
		if _, _, ok := chip.NextIssue(); !ok {
			continue
		}
		r := find(i)
		if slot[r] == 0 {
			comps = append(comps, nil)
			slot[r] = len(comps)
		}
		comps[slot[r]-1] = append(comps[slot[r]-1], i)
	}
	return comps
}

// runComponents runs each component on its own sequential heap:
// max(1, min(workers, GOMAXPROCS, components)) goroutines claim components
// through an atomic cursor while the caller waits. The result is the
// earliest fault across components, or finish's epilogue.
//
// A panic inside a component is recovered on its goroutine, and once every
// goroutine has returned the lowest panicking component's value is
// re-raised on the caller — the same value at every worker count. The
// other components still run to their own ends or faults first, so this
// can differ from RunSequential, whose one heap stops at whichever event
// it reaches first: it may panic with another component's value, or
// return an earlier fault without panicking.
func (cl *Cluster) runComponents(comps [][]int) (int64, error) {
	faults := make([]int, len(comps))
	panics := make([]any, len(comps))
	k := max(1, min(cl.workers, goruntime.GOMAXPROCS(0), len(comps)))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < len(comps); c = int(next.Add(1)) - 1 {
				faults[c], panics[c] = cl.runComponent(comps[c])
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	fi := -1
	for _, f := range faults {
		if f >= 0 && (fi < 0 || eventBefore(cl.chips[f].Fault().Cycle, f, cl.chips[fi].Fault().Cycle, fi)) {
			fi = f
		}
	}
	if fi >= 0 {
		return cl.chips[fi].FinishCycle(), cl.chips[fi].Fault()
	}
	return cl.finish()
}

// runComponent is runHeap on a worker goroutine: a panic is recovered and
// returned instead of killing the process, so runComponents can re-raise
// it where Run's caller can recover it.
func (cl *Cluster) runComponent(chips []int) (fi int, p any) {
	defer func() { p = recover() }()
	return cl.runHeap(chips), nil
}
