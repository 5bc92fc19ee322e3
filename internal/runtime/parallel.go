// Window-parallel cluster execution: conservative horizons, optionally
// stretched by speculation.
//
// The paper's machine gives the simulator the same gift it gives the
// compiler: cross-chip effects propagate only over C2C links, and a link
// hop costs exactly route.HopCycles. A vector sent at cycle c is invisible
// to every receiver before c + HopCycles, so any two chips whose pending
// instructions all fall inside one lookahead window are causally
// independent for the duration of that window — they may execute
// concurrently, in any interleaving, and produce exactly the state the
// sequential executor produces. This is classic conservative parallel
// discrete-event simulation with the hop latency as the lookahead bound.
//
// The lookahead is not fixed at one hop. Because every Send/Transmit sits
// in a statically scheduled program, each chip can lower-bound the cycle of
// its next cross-chip transfer from its program cursors alone
// (tsp.Chip.NextSendBound). If no runnable chip can issue a transfer
// before cycle S, nothing can arrive anywhere before S + HopCycles, and
// the window may extend to that bound — the sound horizon. Compute-heavy
// quiet phases collapse from hundreds of one-hop barriers into one.
//
// Speculation (SetSpecDepth) stretches a window to up to depth hops past
// its barrier and lets chips run optimistically into it; depth 0, the
// default, keeps every window at the sound horizon. Speculation never has
// to undo state, thanks to the single-sender FIFO discipline of every
// directed link: a Recv either consumes exactly the envelope the
// sequential executor would have consumed — the queue is FIFO, nobody else
// can take it, and commit order is (cycle, src, issue) — or finds the
// envelope not committed yet. tsp.StepUntilSpec peeks before every Recv
// and turns the second case into a *stall*: the chip stops at the blocked
// Recv with no cursor motion, no counter or span emission, and no fault,
// so the executed prefix of every chip is always a prefix of the
// sequential execution. A "rollback" is the moment a chip hands back the
// unexecuted remainder of its window — cheap by construction, because
// nothing wrong was ever executed. Inside the sound horizon a peek misses
// only where the schedule lies, so at depth 0 the machinery is idle.
//
// At the barrier the window's sends are merged and every chip whose
// stalled link the merge has filled is re-dispatched toward the horizon,
// to a fixpoint. A stall left over re-enters the heap keyed by its stall
// cycle r and re-peeks whenever it heads the heap, after later flushes.
// If it heads the heap unsatisfied it can never be satisfied: every other
// chip's next issue is at or after r, so the awaited source's next send
// arrives at or after r + HopCycles > r. That is a receiver underflow —
// the schedule lied — and the executor forces the blocked Recv through
// the normal path, which raises the exact fault the sequential executor
// raises at r.
//
// Determinism is preserved by construction, not by scheduling luck:
//
//   - Chip-local state (cursors, streams, SRAM) is touched only by the
//     worker stepping that chip.
//   - Cross-chip sends are buffered per source chip during the window and
//     merged at the barrier in ascending (cycle, chip, issue-order) — the
//     exact order the sequential executor would have delivered them. Every
//     directed link has a single sender, so per-link delivery order (and
//     with it the per-link FEC error RNG stream) is reproduced bit-for-bit.
//     Each per-source buffer is already cycle-sorted (a chip issues in
//     nondecreasing cycle order), so the barrier runs a k-way merge over
//     reused buffers instead of allocating and sorting a global list.
//   - The re-dispatch set depends only on the merged queues and each
//     chip's stall cycle, never on worker scheduling.
//   - The barrier surfaces the first fault in (cycle, chip) order, and an
//     unresolved stall ordered before it outranks it: the stall is run to
//     the flush fixpoint and, if still unresolved, doomed by the heap-min
//     argument above, so the underflow it hides is the fault reported.
//   - Checkpoint and series cadence lines clamp every window end, so when
//     the heap minimum crosses a line every chip has executed exactly the
//     instructions below it and every send below it has been flushed.
//   - Shared observability is atomic counters plus a sorted trace export,
//     so dumps depend on the multiset of events, not the interleaving.
//
// Workers are a persistent pool (one goroutine per worker for the life of
// the run, work handed out by an atomic index), created only when
// GOMAXPROCS actually offers parallelism — at GOMAXPROCS=1 the executor
// runs the window loop inline, and on a clean fabric (no recorder, no
// fault plan, no BER) it skips send buffering entirely and delivers
// in-place, which is observably identical there: per-link order is the
// single sender's own cycle order, envelopes only become visible at their
// true arrival cycles, and the clean deliver path touches nothing else.
//
// The result: finish cycles, memories, fault identities, counters, and
// exported dumps are byte-identical across worker counts and speculation
// depths, including the sequential executor.
package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// pendingSend is one buffered cross-chip transfer: a Send or Transmit
// issued inside the current lookahead window, held until the barrier.
type pendingSend struct {
	cycle int64
	link  int
	v     tsp.Vector
}

// mergeEnt is one source's head position in the barrier's k-way merge:
// the cycle of pend[src][j], carried so the heap never chases the 320-byte
// payloads while sifting.
type mergeEnt struct {
	cycle int64
	src   int32
	j     int32
}

// RunParallel executes the cluster with the window executor on the given
// number of workers, at the cluster's speculation depth. workers <= 1
// still runs the window machinery single-threaded (useful for testing the
// partition); use RunSequential for the plain heap executor. Every
// simulated observable — finish cycle, memory, counters, traces, series,
// checkpoints, fault identity — is byte-identical to RunSequential; only
// wall clock and the volatile runtime.par.* telemetry differ.
func (cl *Cluster) RunParallel(workers int) (int64, error) {
	finish, err := cl.runParallel(workers)
	cl.noteRunEnd(finish)
	return finish, err
}

func (cl *Cluster) runParallel(workers int) (int64, error) {
	if workers < 1 {
		workers = 1
	}

	// Window metrics (nil-safe when no recorder is installed). All of them
	// describe the host partition — how this executor happened to cut
	// windows — not the simulated machine, so every one lives in the
	// volatile registry: excluded from State, metric dumps, series samples,
	// and checkpoint snapshots. That is what lets the sequential executor
	// and the window executor at any depth export byte-identical dumps
	// while still reporting their own window behavior through ParStats and
	// the volatile read-back API.
	windowsC := cl.rec.VolatileCounter("runtime.par.windows")
	windowChipsC := cl.rec.VolatileCounter("runtime.par.window_chips")
	horizonC := cl.rec.VolatileCounter("runtime.par.horizon_cycles")
	stallsC := cl.rec.VolatileCounter("runtime.par.barrier_stalls")
	stalledC := cl.rec.VolatileCounter("runtime.par.barrier_stalled_chips")
	occH := cl.rec.VolatileHistogram("runtime.par.window_occupancy", 0, 1, 65)
	rollbacksC := cl.rec.VolatileCounter("runtime.par.rollbacks")
	wastedC := cl.rec.VolatileCounter("runtime.par.wasted_cycles")
	barrierNS := cl.rec.VolatileCounter("runtime.par.barrier_ns")
	cl.par = ParStats{}

	n := len(cl.chips)
	if cl.pend == nil {
		cl.pend = make([][]pendingSend, n)
		cl.stall = make([]int, n)
		cl.stallOut = make([]int, n)
	}
	for i := range cl.stall {
		cl.stall[i] = -1
	}
	h := cl.runnableHeap(cl.allChips())
	active := make([]int, 0, n)
	retry := make([]int, 0, n)
	nexts := make([]int64, n)
	oks := make([]bool, n)

	// Spawn the persistent pool only for parallelism the scheduler can
	// actually deliver: the window loop itself drains work too, so k is
	// the number of *extra* hands. At GOMAXPROCS=1 that is zero and every
	// window runs inline with no handoff at all.
	var pool *parPool
	if k := min(workers, goruntime.GOMAXPROCS(0)) - 1; k > 0 {
		pool = newParPool(cl, k, nexts, oks)
		defer pool.stop()
	}
	// On a clean fabric single-threaded delivery commutes with the barrier
	// merge (see the package comment), so skip the buffer-and-merge copy.
	direct := pool == nil && cl.rec == nil && cl.fplan == nil && cl.ber == 0
	dispatch := func(chips []int, end int64) {
		if pool == nil || len(chips) == 1 {
			for _, i := range chips {
				nexts[i], oks[i] = cl.stepChip(i, end)
			}
		} else {
			pool.run(chips, end)
		}
	}

	for len(h) > 0 {
		t := h[0].t
		// Sample series before any checkpoint capture at the same barrier,
		// so a snapshot's obs section carries the barrier's sample and a
		// restored run resumes with identical series state.
		if cl.seriesEvery > 0 && t >= cl.seriesNext {
			cl.sampleSeries(t)
			cl.seriesNext = (t/cl.seriesEvery + 1) * cl.seriesEvery
		}
		// Checkpoint at the window barrier once the heap minimum crosses
		// the cadence line: every send issued before t has been flushed,
		// no chip is faulted (a fault ends the run at its window's
		// barrier), and a stall below the line would pin the minimum below
		// it, so the cluster is a closed restart point.
		if cl.ckptEvery > 0 && t >= cl.ckptNext {
			cl.captureCheckpoint(t)
		}

		// A stalled chip at the top of the heap either clears against the
		// last barrier's flush or can never clear (see package comment).
		if e := h[0]; cl.stall[e.idx] >= 0 {
			link := cl.stall[e.idx]
			cl.stall[e.idx] = -1
			if cl.death != nil && e.t >= cl.death[e.idx] {
				// The chip dies at or before the stall cycle: the blocked
				// Recv never executes, same as the ordinary death guard.
				h.pop()
				continue
			}
			if !cl.peek(topo.TSPID(e.idx), link, e.t) {
				return cl.raiseDoomed(e.idx, e.t, link)
			}
		}

		end := cl.windowEnd(t, h)
		// Drain every chip whose next issue falls inside [t, end). By the
		// NextIssue monotonicity contract a chip left in the heap cannot
		// issue before end, so excluding it from this window is safe.
		active = active[:0]
		for len(h) > 0 && h[0].t < end {
			e := h.pop()
			// Same death guard as the sequential executor: a chip whose
			// next issue falls at or past its scheduled death never runs
			// again.
			if cl.death != nil && e.t >= cl.death[e.idx] {
				cl.stall[e.idx] = -1
				continue
			}
			active = append(active, e.idx)
		}
		windowsC.Inc()
		cl.par.Windows++
		windowChipsC.Add(int64(len(active)))
		occH.Add(float64(len(active)))
		if len(h) > 0 {
			// Runnable chips forced to sit this window out: the
			// conservative bound's cost, visible as barrier stalls.
			stallsC.Inc()
			stalledC.Add(int64(len(h)))
		}

		// Step every active chip toward the horizon, buffering sends
		// (unless single-threaded on a clean fabric, where direct delivery
		// is equivalent), then run the flush/retry fixpoint: merge the
		// pass's sends and re-dispatch every chip whose stalled link the
		// merge has filled. Without the retry a pool-buffered run stalls
		// every same-window Recv (envelopes only become visible at the
		// merge) while the direct path speculates straight through; the
		// retry makes both paths converge. Each retried chip consumes at
		// least the Recv it stalled on, so the loop terminates. A fault
		// stops dispatching at once — no chip runs beyond the pass in
		// which it surfaced — unless an unresolved stall precedes it.
		var flushNS int64
		cl.buffering = !direct
		dispatch(active, end)
		fi := cl.firstFault(active)
		for {
			si := cl.firstStall(active, nexts)
			if fi >= 0 && (si < 0 || eventBefore(cl.chips[fi].Fault().Cycle, fi, nexts[si], si)) {
				break
			}
			if !direct {
				s := time.Now()
				cl.flushPending()
				flushNS += time.Since(s).Nanoseconds()
			}
			if si < 0 {
				break
			}
			retry = retry[:0]
			for _, i := range active {
				if link := cl.stallOut[i]; link >= 0 && cl.peek(topo.TSPID(i), link, nexts[i]) {
					// Each re-dispatch after a miss is a rollback: the chip
					// speculated into an empty queue, handed the remainder
					// back, and only the merge made its envelope visible.
					// (No wasted cycles — it resumes at the stall cycle and
					// re-covers the handed-back range inside this window.)
					rollbacksC.Inc()
					cl.par.Rollbacks++
					retry = append(retry, i)
				}
			}
			if len(retry) == 0 {
				if fi >= 0 {
					// The earliest stall precedes the fault and nothing left
					// in flight can fill it: it is the sequential fault.
					cl.buffering = false
					return cl.raiseDoomed(si, nexts[si], cl.stallOut[si])
				}
				break
			}
			dispatch(retry, end)
			fi = cl.firstFault(active)
		}
		cl.buffering = false
		if fi >= 0 {
			// Chip state up to a fault is window-local, so the faulting
			// chip looks exactly as it does sequentially; the run is
			// abandoned for replay.
			return cl.chips[fi].FinishCycle(), cl.chips[fi].Fault()
		}

		// Horizon telemetry after the step so the final, unbounded window
		// can report how far the chips actually ran instead of MaxInt64.
		wlen := end - t
		if end == math.MaxInt64 {
			wlen = 0
			for _, i := range active {
				if f := cl.chips[i].FinishCycle(); f-t > wlen {
					wlen = f - t
				}
			}
		}
		horizonC.Add(wlen)
		cl.par.HorizonCycles += wlen

		// Rollback accounting: a transition into the stalled state hands
		// back the cycles between the stall and the window horizon — the
		// speculation that did not pay off this round.
		for _, i := range active {
			link := cl.stallOut[i]
			if link >= 0 && cl.stall[i] < 0 {
				rollbacksC.Inc()
				cl.par.Rollbacks++
				if w := t + wlen - nexts[i]; w > 0 {
					wastedC.Add(w)
					cl.par.WastedCycles += w
				}
			}
			cl.stall[i] = link
		}

		// Requeue the chips that still have work. Together with the merge
		// above, this serial section is the per-barrier cost the adaptive
		// horizon amortizes; it is timed (wall clock, volatile) so the
		// profiler can attribute it.
		start := time.Now()
		for _, i := range active {
			if oks[i] {
				h.push(chipHeapEntry{t: nexts[i], idx: i})
			}
		}
		ns := flushNS + time.Since(start).Nanoseconds()
		barrierNS.Add(ns)
		cl.par.BarrierNS += ns
	}
	finish, err := cl.finish()
	if cl.seriesEvery > 0 && err == nil {
		// Close every series at the finish cycle so post-run analysis sees
		// end-of-run totals without needing the flat metrics dump.
		cl.sampleSeries(finish)
	}
	return finish, err
}

// eventBefore orders two barrier events — a fault or an unresolved stall
// at a cycle on a chip — in the sequential executor's (cycle, chip) order.
func eventBefore(c1 int64, i1 int, c2 int64, i2 int) bool {
	return c1 < c2 || (c1 == c2 && i1 < i2)
}

// firstFault returns the active chip whose fault comes first in (cycle,
// chip) order, or -1. A stalled chip never faults (the stall happens
// instead of executing), so stalls and faults cannot collide on one chip.
func (cl *Cluster) firstFault(active []int) int {
	fi := -1
	for _, i := range active {
		f := cl.chips[i].Fault()
		if f != nil && (fi < 0 || eventBefore(f.Cycle, i, cl.chips[fi].Fault().Cycle, fi)) {
			fi = i
		}
	}
	return fi
}

// firstStall returns the active chip whose stall comes first in (cycle,
// chip) order, or -1.
func (cl *Cluster) firstStall(active []int, nexts []int64) int {
	si := -1
	for _, i := range active {
		if cl.stallOut[i] >= 0 && (si < 0 || eventBefore(nexts[i], i, nexts[si], si)) {
			si = i
		}
	}
	return si
}

// raiseDoomed executes chip i's blocked Recv at cycle r on the link
// through the normal path once no envelope can reach it any more: take
// misses, tallies runtime.receiver_underflows once, and raises the exact
// fault the sequential executor raises at r.
func (cl *Cluster) raiseDoomed(i int, r int64, link int) (int64, error) {
	// Cross-check against the reverse-link index: if the awaited source
	// could still land an envelope by r, the heap-min argument has been
	// broken — a simulator bug (NextIssue monotonicity or NextSendBound
	// soundness), not a schedule fault, so fail loudly.
	if link < len(cl.inSrc[i]) {
		if src := cl.inSrc[i][link]; src >= 0 && cl.sourceCouldSendBy(src, r) {
			panic(fmt.Sprintf("runtime: chip %d stall on link %d at cycle %d classified doomed while source %d can still send", i, link, r, src))
		}
	}
	chip := cl.chips[i]
	chip.StepUntil(r + 1)
	f := chip.Fault()
	if f == nil {
		// peek and take share one predicate and nothing was delivered in
		// between, so the Recv must miss.
		panic(fmt.Sprintf("runtime: chip %d doomed Recv on link %d at cycle %d did not underflow", i, link, r))
	}
	return chip.FinishCycle(), f
}

// windowEnd computes the current window's horizon: at least one hop past
// the barrier, extended to one hop past the earliest cycle at which any
// runnable chip could issue a cross-chip transfer (a send at s >= S
// arrives at s + HopCycles >= end, so nothing sent inside the window is
// consumable inside it), stretched to the speculation depth, and clamped
// to the next checkpoint/series cadence line so barrier-anchored captures
// fire exactly once per line. Always > t: both cadence lines are > t
// after the top-of-loop capture checks.
func (cl *Cluster) windowEnd(t int64, h chipHeap) int64 {
	end := t + int64(route.HopCycles)
	if len(h) == 1 {
		// A single runnable chip: any send it issues lands on a chip that
		// finished or parked for good (chips never rejoin the heap — a
		// NOTIFY only wakes units on its own chip), so no transfer it makes
		// is ever consumed. Run it to completion.
		end = math.MaxInt64
	} else {
		earliest := int64(math.MaxInt64)
		for i := range h {
			e := h[i]
			if cl.death != nil && e.t >= cl.death[e.idx] {
				// Scheduled dead on its next issue: it never sends again.
				continue
			}
			b, ok := cl.chips[e.idx].NextSendBound()
			if !ok {
				continue
			}
			if cl.death != nil && b >= cl.death[e.idx] {
				// The next possible send sits at or past the chip's death
				// cycle, so it never executes either.
				continue
			}
			if b < earliest {
				earliest = b
				if earliest <= t {
					break // cannot extend past the one-hop floor
				}
			}
		}
		if earliest == math.MaxInt64 {
			end = math.MaxInt64
		} else if x := earliest + int64(route.HopCycles); x > end {
			end = x
		}
		if x := t + cl.specDepth*int64(route.HopCycles); x > end && end != math.MaxInt64 {
			end = x
		}
	}
	if cl.ckptEvery > 0 && end > cl.ckptNext {
		end = cl.ckptNext
	}
	if cl.seriesEvery > 0 && end > cl.seriesNext {
		end = cl.seriesNext
	}
	return end
}

// stepChip advances one chip toward the window horizon, clamped to the
// chip's scheduled death (instructions at or past it never execute, the
// same predicate the sequential executor's pop guard enforces), and stops
// early at a Recv whose envelope is not committed yet. stallOut[i]
// records that Recv's link, or -1 when the chip ran to the horizon or out
// of work; it is written only by the worker stepping chip i.
func (cl *Cluster) stepChip(i int, end int64) (int64, bool) {
	if cl.death != nil && cl.death[i] < end {
		end = cl.death[i]
	}
	next, ok, link := cl.chips[i].StepUntilSpec(end, cl.c2cs[i])
	cl.stallOut[i] = link
	return next, ok
}

// sourceCouldSendBy reports whether chip src could still land an envelope
// at or before cycle r: it is alive before its send, and its earliest
// possible send arrives by r. Used only as the doomed-stall invariant
// cross-check; under the heap-min argument it is always false there.
func (cl *Cluster) sourceCouldSendBy(src int, r int64) bool {
	b, ok := cl.chips[src].NextSendBound()
	if !ok || b+int64(route.HopCycles) > r {
		return false
	}
	return cl.death == nil || b < cl.death[src]
}

// parPool is the persistent worker pool: one goroutine per extra worker
// for the life of the run, so a window costs one token send and one
// WaitGroup wait instead of spawning goroutines. Work is handed out by an
// atomic index over the window's active list; the caller drains too, so a
// one-chip window never pays a handoff at all (the window loop skips the
// pool entirely in that case).
type parPool struct {
	cl     *Cluster
	nexts  []int64
	oks    []bool
	work   chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
	active []int
	end    int64
	cursor atomic.Int64
}

func newParPool(cl *Cluster, n int, nexts []int64, oks []bool) *parPool {
	p := &parPool{cl: cl, nexts: nexts, oks: oks,
		work: make(chan struct{}, n), quit: make(chan struct{})}
	for k := 0; k < n; k++ {
		go p.worker()
	}
	return p
}

func (p *parPool) worker() {
	for {
		// The token receive happens-after run's round-state writes, and
		// wg.Done happens-before the caller's wg.Wait reads of nexts/oks —
		// the two memory-model edges the round protocol needs.
		select {
		case <-p.quit:
			return
		case <-p.work:
			p.drain()
			p.wg.Done()
		}
	}
}

// drain claims chips off the shared cursor until the round is exhausted.
func (p *parPool) drain() {
	for {
		j := int(p.cursor.Add(1)) - 1
		if j >= len(p.active) {
			return
		}
		i := p.active[j]
		p.nexts[i], p.oks[i] = p.cl.stepChip(i, p.end)
	}
}

// them, and wait for the stragglers.
func (p *parPool) run(active []int, end int64) {
	p.active, p.end = active, end
	p.cursor.Store(0)
	wake := cap(p.work)
	if m := len(active) - 1; wake > m {
		wake = m
	}
	p.wg.Add(wake)
	for k := 0; k < wake; k++ {
		p.work <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
}

func (p *parPool) stop() { close(p.quit) }

// flushPending delivers every buffered send in ascending (cycle, source
// chip, issue order) — the order a sequential run interleaves them — and
// resets the buffers. Each per-source buffer is already cycle-sorted (a
// chip issues in nondecreasing cycle order within a window), so this is a
// k-way merge over source heads on a reused entry heap: no allocation, no
// comparison sort, no payload copies while sifting. Runs single-threaded
// at the window barrier, so the lazily built per-link FEC models, their
// RNG streams, and the MBE/Corrected tallies behave exactly as in
// sequential delivery.
func (cl *Cluster) flushPending() {
	m := cl.merge[:0]
	for src := range cl.pend {
		if len(cl.pend[src]) > 0 {
			m = append(m, mergeEnt{cycle: cl.pend[src][0].cycle, src: int32(src)})
		}
	}
	if len(m) == 0 {
		cl.merge = m
		return
	}
	// Seeded in ascending src order with j=0, so sift stability on equal
	// cycles resolves to the lowest source chip — the sequential tie-break.
	for i := len(m)/2 - 1; i >= 0; i-- {
		mergeSift(m, i)
	}
	for len(m) > 0 {
		e := &m[0]
		p := &cl.pend[e.src][e.j]
		cl.deliver(topo.TSPID(e.src), p.link, &p.v, p.cycle)
		if nj := e.j + 1; int(nj) < len(cl.pend[e.src]) {
			e.j = nj
			e.cycle = cl.pend[e.src][nj].cycle
		} else {
			m[0] = m[len(m)-1]
			m = m[:len(m)-1]
		}
		mergeSift(m, 0)
	}
	for i := range cl.pend {
		cl.pend[i] = cl.pend[i][:0]
	}
	cl.merge = m[:0]
}

// mergeLess orders merge entries by (cycle, src); within one source the
// buffer's own index order is issue order already.
func mergeLess(a, b mergeEnt) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.src < b.src
}

// mergeSift restores the min-heap property downward from index i.
func mergeSift(m []mergeEnt, i int) {
	n := len(m)
	for {
		least := i
		if l := 2*i + 1; l < n && mergeLess(m[l], m[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && mergeLess(m[r], m[least]) {
			least = r
		}
		if least == i {
			return
		}
		m[i], m[least] = m[least], m[i]
		i = least
	}
}
