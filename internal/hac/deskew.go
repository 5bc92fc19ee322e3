package hac

import (
	"sort"

	"repro/internal/c2c"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements the DESKEW-based program alignment of §3.2 (Fig 7b)
// and the RUNTIME_DESKEW resynchronization of §3.3.

// InitialAlignment models the Fig 7b handshake that starts a distributed
// program simultaneously on a parent and child device whose HACs have
// already been aligned:
//
//	t1: the child enters a polling loop, testing at each of its epoch
//	    boundaries whether the parent's vector has arrived;
//	t2: the parent program is invoked, DESKEWs to its next epoch
//	    boundary, and TRANSMITs a vector;
//	t3: the vector arrives at the child;
//	t4: the child's RECV issues at the first epoch boundary after t3,
//	    ⌊L/period⌋+1 epochs after the transmit; both devices NOTIFY.
//
// It returns the global times at which the parent and child begin
// synchronized computation. With aligned HACs the two differ only by
// residual counter misalignment (link jitter).
func InitialAlignment(e *Edge, invokeChild, invokeParent sim.Time) (parentStart, childStart sim.Time) {
	if invokeChild > invokeParent {
		// The child must already be polling when the parent's vector
		// lands; the runtime guarantees this ordering.
		panic("hac: child must be invoked before the parent transmits")
	}
	// Parent: DESKEW, then TRANSMIT at its epoch boundary.
	tTx := e.Parent.NextEpochBoundary(invokeParent)
	// Vector flight time (one drawn latency on the physical link).
	flight := e.Parent.Clock.CyclesToTime(int64(e.Link.DrawLatencyCycles()))
	tArrive := tTx + flight
	// Child: RECV issues at its first epoch boundary after arrival.
	childStart = e.Child.NextEpochBoundary(tArrive)
	if childStart == tArrive {
		// Boundary coincides with arrival: the poll consumed it only
		// at the *next* boundary.
		childStart = e.Child.NextEpochBoundary(tArrive + 1)
	}
	// Parent: waits the statically known ⌊L/period⌋+1 epochs after its
	// transmit boundary, then NOTIFYs.
	wait := (e.CharLatency/Period + 1) * Period
	parentStart = tTx + e.Parent.Clock.CyclesToTime(wait)
	return parentStart, childStart
}

// TreeAlignmentResult reports a whole-system initial program alignment.
type TreeAlignmentResult struct {
	// Starts[id] is the global time device id begins computation.
	Starts map[int]sim.Time
	// Spread is the worst-case difference between any two start times.
	Spread sim.Time
	// OverheadCycles is the synchronization overhead actually incurred,
	// measured from the root's invocation to the last start.
	OverheadCycles int64
}

// AlignProgramStart runs the Fig 7b handshake down every level of the
// spanning tree. The "go" vector ripples from the root: each device, on
// exiting its polling loop, forwards the vector to its children at its next
// epoch boundary. Because every device knows its depth d and the tree height
// h statically, it then DESKEWs for (h−d)·k additional epochs (k =
// ⌊Lmax/period⌋+1), so that *every* device NOTIFYs at the same global epoch
// — the paper's (⌊L/period⌋+1)·h overhead — within residual HAC jitter.
func AlignProgramStart(tree *Tree, invoke sim.Time) TreeAlignmentResult {
	res := TreeAlignmentResult{Starts: map[int]sim.Time{}}

	// All pollers arm at invoke; the root's program is invoked one epoch
	// later so every poller is guaranteed ready.
	rootInvoke := invoke + tree.Root.Clock.CyclesToTime(Period)

	// Ripple the go vector down the tree, recording when each device
	// exits its polling loop and how many epochs its root path consumed
	// (k_e = ⌊L_e/period⌋+1 per edge — optical hops cost more epochs
	// than electrical ones, and every device knows its path statically).
	rcv := map[int]sim.Time{tree.Root.ID: tree.Root.NextEpochBoundary(rootInvoke)}
	cum := map[int]int64{tree.Root.ID: 0}
	dev := map[int]*Device{tree.Root.ID: tree.Root}
	for _, level := range tree.Levels {
		for _, e := range level {
			pt, ok := rcv[e.Parent.ID]
			if !ok {
				panic("hac: tree levels out of order")
			}
			tTx := e.Parent.NextEpochBoundary(pt)
			flight := e.Parent.Clock.CyclesToTime(int64(e.Link.DrawLatencyCycles()))
			arrive := tTx + flight
			c := e.Child.NextEpochBoundary(arrive)
			if c == arrive {
				c = e.Child.NextEpochBoundary(arrive + 1)
			}
			rcv[e.Child.ID] = c
			cum[e.Child.ID] = cum[e.Parent.ID] + e.CharLatency/Period + 1
			dev[e.Child.ID] = e.Child
		}
	}

	// Compensation: every device waits until the statically known
	// worst-case epoch count Kmax has elapsed since the root's boundary.
	var kMax int64
	for _, k := range cum {
		if k > kMax {
			kMax = k
		}
	}
	for id, t := range rcv {
		wait := (kMax - cum[id]) * Period
		res.Starts[id] = t + dev[id].Clock.CyclesToTime(wait)
	}

	var minT, maxT sim.Time
	first := true
	for _, s := range res.Starts {
		if first || s < minT {
			minT = s
		}
		if first || s > maxT {
			maxT = s
		}
		first = false
	}
	res.Spread = maxT - minT
	res.OverheadCycles = tree.Root.Clock.CycleAt(maxT) - tree.Root.Clock.CycleAt(invoke)
	if rec := tree.rec; rec != nil {
		// Iterate in device-id order: trace event order must not depend
		// on map iteration.
		ids := make([]int, 0, len(res.Starts))
		for id := range res.Starts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			rec.SetThreadName(id, hacTid, "hac")
			rec.InstantUS(id, hacTid, "hac.program_start", res.Starts[id].Microseconds())
		}
		rec.Gauge("hac.start_spread_ps").Set(int64(res.Spread))
		rec.Gauge("hac.sync_overhead_cycles").Set(res.OverheadCycles)
	}
	return res
}

// RuntimeDeskew models the RUNTIME_DESKEW t instruction (§3.3): the device
// stalls for target ± δt cycles, where δt = SAC − HAC is the accumulated
// local-vs-global drift. A device whose local oscillator runs fast has
// SAC > HAC (positive δt) and stalls longer; a slow device stalls less. On
// resume the SAC is rebased onto the HAC so drift accounting restarts.
//
// It returns the global time at which the device resumes. target must
// exceed the largest possible |δt| (the compiler guarantees this by
// scheduling resyncs often enough that drift stays ≪ Period/2).
func RuntimeDeskew(d *Device, now sim.Time, target int64) sim.Time {
	delta := -d.Delta(now) // SAC − HAC
	stall := target + delta
	if stall < 0 {
		stall = 0
	}
	resume := now + d.Clock.CyclesToTime(stall)
	d.RebaseSAC()
	return resume
}

// BackgroundExchange keeps a tree's HACs tracking the root during a long
// computation by running one alignment iteration per epoch on every edge,
// from time start for the given number of epochs. This models the
// continuous (every-256-cycles) hardware HAC exchange of §3.1.
func BackgroundExchange(tree *Tree, start sim.Time, epochs int, maxStep int64) {
	epoch := tree.Root.Clock.CyclesToTime(Period)
	t := start
	for i := 0; i < epochs; i++ {
		for _, level := range tree.Levels {
			for _, e := range level {
				e.AlignOnce(t, maxStep)
			}
		}
		t += epoch
	}
}

// BuildChain builds a linear spanning tree (a chain of devices, each the
// parent of the next), characterizing every link, instrumented with rec.
// Useful for multi-hop tests and the Fig 7 reproduction.
func BuildChain(devices []*Device, mkLink func(i int) *c2c.Link, charIters int, rec *obs.Recorder) *Tree {
	if len(devices) < 2 {
		panic("hac: chain needs at least two devices")
	}
	tree := &Tree{Root: devices[0], rec: rec}
	for i := 0; i < len(devices)-1; i++ {
		e := &Edge{Parent: devices[i], Child: devices[i+1], Link: mkLink(i)}
		e.Link.Instrument(rec)
		e.Characterize(charIters)
		tree.Levels = append(tree.Levels, []*Edge{e})
	}
	return tree
}

// BuildStar builds a one-level tree: device 0 is the parent of all others
// (the intra-node topology where the node's TSP 0 is the local reference),
// as BuildChain does.
func BuildStar(devices []*Device, mkLink func(i int) *c2c.Link, charIters int, rec *obs.Recorder) *Tree {
	if len(devices) < 2 {
		panic("hac: star needs at least two devices")
	}
	tree := &Tree{Root: devices[0], rec: rec}
	var level []*Edge
	for i := 1; i < len(devices); i++ {
		e := &Edge{Parent: devices[0], Child: devices[i], Link: mkLink(i - 1)}
		e.Link.Instrument(rec)
		e.Characterize(charIters)
		level = append(level, e)
	}
	tree.Levels = [][]*Edge{level}
	return tree
}
