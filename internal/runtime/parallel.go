// Window-parallel cluster execution with conservative horizons.
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
// Inside the sound horizon every envelope a Recv may legally consume was
// sent before the window began and has already been delivered, so a Recv
// that finds no data is a real receiver underflow — the schedule lied —
// and faults on the spot, exactly as it does on the sequential executor.
//
// Each window is one pass: step every chip whose next issue falls inside
// it toward the horizon, merge the window's buffered sends, surface the
// first fault, and requeue the chips that still have work.
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
//   - The barrier surfaces the first fault in (cycle, chip) order. Chips
//     left in the heap cannot issue before the horizon, so no fault they
//     could raise precedes it.
//   - Checkpoint and series cadence lines clamp every window end, so when
//     the heap minimum crosses a line every chip has executed exactly the
//     instructions below it and every send below it has been flushed.
//   - Shared observability is atomic counters plus a sorted trace export,
//     so dumps depend on the multiset of events, not the interleaving.
//
// Workers are a persistent pool (one goroutine per worker for the life of
// the run, work handed out by an atomic index), created only when
// GOMAXPROCS actually offers parallelism — at GOMAXPROCS=1 the executor
// runs the window loop inline.
//
// The result: finish cycles, memories, fault identities, counters, and
// exported dumps are byte-identical across worker counts, including the
// sequential executor.
package runtime

import (
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
// number of workers. workers <= 1 still runs the window machinery
// single-threaded (useful for testing the partition); use RunSequential
// for the plain heap executor. Every simulated observable — finish cycle,
// memory, counters, traces, series, checkpoints, fault identity — is
// byte-identical to RunSequential; only wall clock and the volatile
// runtime.par.* telemetry differ.
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
	// and the window executor export byte-identical dumps while still
	// reporting their own window behavior through ParStats and the
	// volatile read-back API.
	windowsC := cl.rec.VolatileCounter("runtime.par.windows")
	windowChipsC := cl.rec.VolatileCounter("runtime.par.window_chips")
	horizonC := cl.rec.VolatileCounter("runtime.par.horizon_cycles")
	stallsC := cl.rec.VolatileCounter("runtime.par.barrier_stalls")
	stalledC := cl.rec.VolatileCounter("runtime.par.barrier_stalled_chips")
	occH := cl.rec.VolatileHistogram("runtime.par.window_occupancy", 0, 1, 65)
	barrierNS := cl.rec.VolatileCounter("runtime.par.barrier_ns")
	cl.par = ParStats{}

	n := len(cl.chips)
	if cl.pend == nil {
		cl.pend = make([][]pendingSend, n)
	}
	h := cl.runnableHeap(cl.allChips())
	active := make([]int, 0, n)
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
	cl.buffering = true
	defer func() { cl.buffering = false }()

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
		// the cadence line: every send issued before t has been flushed
		// and no chip is faulted (a fault ends the run at its window's
		// barrier), so the cluster is a closed restart point.
		if cl.ckptEvery > 0 && t >= cl.ckptNext {
			cl.captureCheckpoint(t)
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

		// Step every active chip toward the horizon, buffering its sends,
		// then merge them. Chip state up to a fault is window-local, so a
		// faulting chip looks exactly as it does sequentially; the run is
		// abandoned for replay.
		if pool == nil || len(active) == 1 {
			for _, i := range active {
				nexts[i], oks[i] = cl.stepChip(i, end)
			}
		} else {
			pool.run(active, end)
		}
		start := time.Now()
		cl.flushPending()
		if fi := cl.firstFault(active); fi >= 0 {
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

		// Requeue the chips that still have work. Together with the merge
		// above, this serial section is the per-barrier cost the adaptive
		// horizon amortizes; it is timed (wall clock, volatile) so the
		// profiler can attribute it.
		for _, i := range active {
			if oks[i] {
				h.push(chipHeapEntry{t: nexts[i], idx: i})
			}
		}
		ns := time.Since(start).Nanoseconds()
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

// eventBefore orders two faults, each at a cycle on a chip, in the
// sequential executor's (cycle, chip) order.
func eventBefore(c1 int64, i1 int, c2 int64, i2 int) bool {
	return c1 < c2 || (c1 == c2 && i1 < i2)
}

// firstFault returns the active chip whose fault comes first in (cycle,
// chip) order, or -1.
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

// windowEnd computes the current window's horizon: at least one hop past
// the barrier, extended to one hop past the earliest cycle at which any
// runnable chip could issue a cross-chip transfer (a send at s >= S
// arrives at s + HopCycles >= end, so nothing sent inside the window is
// consumable inside it), and clamped to the next checkpoint/series cadence
// line so barrier-anchored captures fire exactly once per line. Always
// > t: both cadence lines are > t after the top-of-loop capture checks.
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
// same predicate the sequential executor's pop guard enforces).
func (cl *Cluster) stepChip(i int, end int64) (int64, bool) {
	if cl.death != nil && cl.death[i] < end {
		end = cl.death[i]
	}
	return cl.chips[i].StepUntil(end)
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

// run executes one window round: publish the round state, wake at most
// len(active)-1 helpers (the caller is a worker too), drain alongside
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
