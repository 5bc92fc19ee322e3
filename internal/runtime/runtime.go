// Package runtime is the multi-chip execution layer of the software stack
// (Fig 12): it emplaces per-chip binaries, binds the chips' C2C units to
// the topology's links, runs the whole cluster in globally time-ordered
// lockstep (the execution the HAC machinery of internal/hac licenses), and
// implements the paper's fault strategy — software replay of an inference
// on detected-uncorrectable errors, and N+1 hot-spare node failover
// (§4.5).
//
// Two executors produce byte-identical results, both on one stepping loop
// (runHeap): a sequential min-heap executor (RunSequential), the
// reference, which also captures the checkpoint and series cadences at
// its heap barriers; and a component executor (see components.go) that
// exploits the static schedule itself — chip groups whose programs never
// send to each other run on their own heaps in parallel, with no
// barriers. Run picks between them.
package runtime

import (
	"fmt"
	"math"

	"repro/internal/c2c"
	"repro/internal/faultplan"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Cluster executes one program binary per TSP over the constructed
// topology. A chip's link index is its topology port (topo.System.Port),
// the compile-time numbering the scheduler and the hardware share.
type Cluster struct {
	sys   *topo.System
	chips []*tsp.Chip
	posts []*mailbox

	// routes[src][link] is the destination inbound queue for source chip
	// src's local outbound link index, and routeIDs[src][link] the global
	// id of that link — the two facts the common (no-fault, no-recorder)
	// deliver path needs, pre-resolved at construction so each send pays
	// two slice indexes instead of re-deriving the topology lookups.
	routes   [][]*linkQueue
	routeIDs [][]topo.LinkID

	// workers is the component executor's goroutine count (SetWorkers),
	// and exec records the executor the most recent Run chose.
	workers int
	exec    Executor

	// Link error process (§4.5): every delivered vector passes through
	// the frame FEC; single-bit errors are corrected in situ without
	// disturbing timing, uncorrectable errors are flagged for software
	// replay. links[l] lazily materializes the per-link error model.
	ber       float64
	errRNG    *sim.RNG
	links     map[topo.LinkID]*c2c.Link
	Corrected int64
	MBEs      int64

	// Fault schedule (§4.5, see faults.go): a compiled faultplan stamped
	// in wall cycles, the wall cycle of this run's cycle 0, links the
	// ladder already repaired (plan events ignored), and each chip's
	// run-local death cycle (chipAlive when it survives the run).
	fplan    *faultplan.Compiled
	fbase    int64
	repaired map[topo.LinkID]bool
	death    []int64

	// Health telemetry for the monitor: per-link uncorrectable-frame
	// tallies, the run-local cycle each link first erred, the earliest MBE
	// overall (−1 until one lands), and the horizon the last run reached.
	linkMBEs      map[topo.LinkID]int64
	linkFirstMBE  map[topo.LinkID]int64
	firstMBECycle int64
	endCycle      int64

	// Observability (nil-safe; attached by SetRecorder).
	// linkVecs/linkSlots/linkTx are lazily resolved per-link handles: the
	// vector counter, the occupied-slot-cycle counter, and the destination-
	// encoded span name ("c2c.tx>dst") the profiler's critical-path walk
	// parses to follow a transfer across chips.
	rec        *obs.Recorder
	vectors    *obs.Counter
	underflows *obs.Counter
	linkVecs   map[topo.LinkID]*obs.Counter
	linkSlots  map[topo.LinkID]*obs.Counter
	linkTx     map[topo.LinkID]string

	// Checkpointing (see checkpoint.go): capture every ckptEvery cycles at
	// heap barriers; ckptNext is the next cadence line, ckptFrom the
	// cycle this cluster was restored at (0 for a fresh run), ckpts the
	// captured store, oldest first.
	ckptEvery int64
	ckptNext  int64
	ckptFrom  int64
	ckpts     []Stored
	// ckptPrev holds each chip's previous capture, the baseline each
	// capture overwrites in place (tsp.Chip.CaptureState): cadence captures
	// after the first re-encode only the SRAM vectors the chip dirtied
	// since the last barrier snapshot. Nil until the first capture;
	// invalidated by RestoreSnapshot (the restored memory resets its dirty
	// tracking).
	ckptPrev []tsp.ChipState

	// Series sampling (see series.go): snapshot every registered counter
	// and gauge into obs time series at heap barriers every seriesEvery
	// cycles; seriesNext is the next cadence line. chipDepth holds the
	// lazily resolved per-chip mailbox-depth gauges set at each sample.
	seriesEvery int64
	seriesNext  int64
	inflightG   *obs.Gauge
	chipDepth   []*obs.Gauge
}

// mailbox is one chip's inbound message queues, per local link index.
type mailbox struct {
	queues []linkQueue
}

type envelope struct {
	v       tsp.Vector
	arrival int64
}

// linkQueue is a head-indexed FIFO of in-flight vectors. Popping advances
// head instead of re-slicing (q = q[1:] would pin the whole backing array
// for the life of the run); a push into a full buffer first slides the
// live envelopes over the consumed prefix (makeRoom), so the buffer grows
// only when every slot holds an in-flight vector and capacity stays
// bounded by the peak number in flight, not by the total ever sent.
// Envelopes hold no pointers, so consumed slots need no clearing — the
// bytes are simply overwritten when the slot is reused.
type linkQueue struct {
	buf  []envelope
	head int
}

func (q *linkQueue) len() int { return len(q.buf) - q.head }

func (q *linkQueue) front() *envelope { return &q.buf[q.head] }

func (q *linkQueue) push(e envelope) {
	q.makeRoom()
	q.buf = append(q.buf, e)
}

// pushSlot appends an envelope with the given arrival and returns its
// payload slot so the producer can fill the 320 bytes in place — the one
// per-hop copy (source register → in-flight queue) instead of the 3–4
// value copies the old Send/deliver/push chain made. The producer
// overwrites the whole payload, so a reused slot is not zeroed first.
func (q *linkQueue) pushSlot(arrival int64) *tsp.Vector {
	q.makeRoom()
	n := len(q.buf)
	if n < cap(q.buf) {
		q.buf = q.buf[:n+1]
	} else {
		q.buf = append(q.buf, envelope{})
	}
	e := &q.buf[n]
	e.arrival = arrival
	return &e.v
}

// makeRoom slides the live envelopes down over the consumed prefix when
// the buffer is full, so a queue that never fully drains reuses its
// capacity instead of growing.
func (q *linkQueue) makeRoom() {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// popInto advances past the front envelope, copying its payload into dst —
// the one copy on the receive side (queue → destination register).
func (q *linkQueue) popInto(dst *tsp.Vector) {
	*dst = q.buf[q.head].v
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// chipC2C adapts the cluster's mailboxes to the tsp.C2C interface for one
// chip.
type chipC2C struct {
	cl *Cluster
	id topo.TSPID
}

func (c *chipC2C) Send(link int, v *tsp.Vector, cycle int64) {
	c.cl.deliver(c.id, link, v, cycle)
}

func (c *chipC2C) Transmit(link int, cycle int64) {
	// The alignment notification is a vector like any other.
	var zero tsp.Vector
	c.cl.deliver(c.id, link, &zero, cycle)
}

func (c *chipC2C) Recv(link int, cycle int64, dst *tsp.Vector) bool {
	return c.cl.take(c.id, link, cycle, dst)
}

// New builds a cluster executing programs[t] on TSP t. Programs may be nil
// for idle chips. Programs are read-only to the cluster and may be shared:
// chips given the same *isa.Program share its program-derived tables. A
// program that sends or transmits on a link its chip lacks is an error.
// The cluster records nothing until its owner calls SetRecorder.
func New(sys *topo.System, programs []*isa.Program) (*Cluster, error) {
	if len(programs) > sys.NumTSPs() {
		return nil, fmt.Errorf("runtime: %d programs for %d TSPs", len(programs), sys.NumTSPs())
	}
	cl := &Cluster{sys: sys, workers: 1, firstMBECycle: -1}
	// Kept only for bench/tspbench, which installs the global before New,
	// until ROADMAP item 8a deletes it with obs.Set/Get.
	cl.SetRecorder(obs.Get())
	idle := &isa.Program{}
	loaded := map[*isa.Program]*tsp.Chip{}
	for t := 0; t < sys.NumTSPs(); t++ {
		prog := idle
		if t < len(programs) && programs[t] != nil {
			prog = programs[t]
		}
		port := &chipC2C{cl: cl, id: topo.TSPID(t)}
		var chip *tsp.Chip
		if sib, ok := loaded[prog]; ok {
			chip = tsp.NewLike(t, sib, port)
		} else {
			chip = tsp.New(t, prog, port)
			loaded[prog] = chip
		}
		chip.AttachRecorder(cl.rec)
		degree := len(sys.Out(topo.TSPID(t)))
		if links := chip.SendLinks(); len(links) > 0 && links[len(links)-1] >= degree {
			return nil, fmt.Errorf("runtime: chip %d's program sends on link %d, but the chip has %d links",
				t, links[len(links)-1], degree)
		}
		cl.chips = append(cl.chips, chip)
		mb := &mailbox{queues: make([]linkQueue, degree)}
		for i := range mb.queues {
			// Seed each queue with room for a handful of in-flight vectors
			// so steady-state traffic never pays append's growth copies.
			mb.queues[i].buf = make([]envelope, 0, 8)
		}
		cl.posts = append(cl.posts, mb)
	}
	// Pre-resolve each chip's outbound routes to destination queue
	// pointers (stable: the queues slices are fixed-size after this loop).
	cl.routes = make([][]*linkQueue, sys.NumTSPs())
	cl.routeIDs = make([][]topo.LinkID, sys.NumTSPs())
	for t := 0; t < sys.NumTSPs(); t++ {
		out := sys.Out(topo.TSPID(t))
		cl.routes[t] = make([]*linkQueue, len(out))
		cl.routeIDs[t] = make([]topo.LinkID, len(out))
		for j, lid := range out {
			l := sys.Link(lid)
			cl.routes[t][j] = &cl.posts[l.To].queues[sys.Port(l.Reverse)]
			cl.routeIDs[t][j] = lid
		}
	}
	return cl, nil
}

// SetRecorder attaches rec to the cluster, its chips and the link models
// it builds from here on, and arms rec's series cadence, if any. Call it
// before RestoreSnapshot and Run; nil is a no-op.
func (cl *Cluster) SetRecorder(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	cl.rec = rec
	cl.vectors = rec.Counter("runtime.vectors_delivered")
	cl.underflows = rec.Counter("runtime.receiver_underflows")
	cl.linkVecs = map[topo.LinkID]*obs.Counter{}
	cl.linkSlots = map[topo.LinkID]*obs.Counter{}
	cl.linkTx = map[topo.LinkID]string{}
	if every := rec.SeriesCadence(); every > 0 {
		cl.SetSeriesCadence(every)
	}
	for _, c := range cl.chips {
		c.AttachRecorder(rec)
	}
}

// SetWorkers sets how many goroutines Run's component executor spreads
// independent chip groups over. Every other run is sequential. Results
// are byte-identical at any setting.
func (cl *Cluster) SetWorkers(n int) {
	cl.workers = max(n, 1)
}

// Workers reports the configured executor parallelism.
func (cl *Cluster) Workers() int { return cl.workers }

// ParStats is the record Cluster.ParStats returns; every field is zero.
type ParStats struct {
	Windows       int64
	HorizonCycles int64
	BarrierNS     int64
}

// ParStats always returns the zero value. It is kept only for
// bench/tspbench, which still reads it.
func (cl *Cluster) ParStats() ParStats { return ParStats{} }

// Executor describes the executor the most recent Run chose: its name
// ("sequential" or "components"), the reason, and how many independent
// chip groups it ran separately (1 when it ran the cluster as one). It
// describes the host, not the simulated machine, so it never enters a
// deterministic export.
type Executor struct {
	Name       string
	Reason     string
	Components int
}

// Executor reports the most recent Run's executor choice (the zero value
// before any Run).
func (cl *Cluster) Executor() Executor { return cl.exec }

// Chip returns TSP t's chip model (for loading data and reading results).
func (cl *Cluster) Chip(t int) *tsp.Chip { return cl.chips[t] }

// SetBitErrorRate enables the link error process: every delivered vector
// is FEC-encoded, corrupted per-bit with probability ber, and decoded on
// receipt. Corrections are silent and timing-neutral; uncorrectable errors
// increment MBEs and fail Run (the runtime's cue to replay, §4.5).
func (cl *Cluster) SetBitErrorRate(ber float64, seed uint64) {
	cl.ber = ber
	cl.errRNG = sim.NewRNG(seed)
	cl.links = make(map[topo.LinkID]*c2c.Link)
}

// deliver routes a vector from srcChip's local link index onto the peer's
// inbound queue, arriving one deterministic hop later. The pointee is only
// borrowed (it may be a live stream register) and is never mutated: the
// payload is copied into the queue slot first and any fault-plan or FEC
// corruption is applied to the slot in place.
func (cl *Cluster) deliver(src topo.TSPID, link int, v *tsp.Vector, cycle int64) {
	routes := cl.routes[src]
	if cl.rec == nil && cl.fplan == nil && cl.ber == 0 {
		// Clean-fabric fast path (the overwhelmingly common case): route
		// straight to the pre-resolved destination queue. Observably
		// identical to the full path below with every feature branch off.
		slot := routes[link].pushSlot(cycle + route.HopCycles)
		*slot = *v
		return
	}
	l := cl.sys.Link(cl.routeIDs[src][link])
	if cl.rec != nil {
		cl.vectors.Inc()
		lc, ok := cl.linkVecs[l.ID]
		if !ok {
			// First delivery on this link: resolve its counters, its
			// destination-encoded span name, and name its sender-side track
			// (pid = source chip, tid = TidLinkBase + local link index)
			// once. Link IDs are directed, so (src, link) is fixed for a
			// given ID and naming here covers every later delivery — the
			// hot path pays no Sprintf.
			lid := obs.L("link", fmt.Sprintf("L%04d", l.ID))
			lc = cl.rec.Counter("runtime.link_vectors", lid)
			cl.linkVecs[l.ID] = lc
			cl.linkSlots[l.ID] = cl.rec.Counter("runtime.link_slot_cycles", lid)
			// "c2c.tx>dst" lets post-run analysis chain a transfer span to
			// compute on the destination chip without a side table.
			cl.linkTx[l.ID] = "c2c.tx>" + obs.Itoa(int(l.To))
			cl.rec.SetThreadName(int(src), obs.TidLinkBase+link, fmt.Sprintf("link%d", link))
		}
		lc.Inc()
		cl.linkSlots[l.ID].Add(route.SlotCycles)
		cl.rec.SpanCycles(int(src), obs.TidLinkBase+link, cl.linkTx[l.ID], cycle, route.HopCycles)
	}
	// Merge any scheduled fault covering this delivery. Plan events are
	// stamped in wall cycles; this run's cycle 0 sits at cl.fbase.
	ber := cl.ber
	down := false
	if cl.fplan != nil && !cl.repaired[l.ID] {
		wall := cl.fbase + cycle
		if cl.fplan.LinkDownAt(l.ID, wall) {
			down = true
		} else if e, ok := cl.fplan.LinkBERAt(l.ID, wall); ok {
			ber = e
		}
	}
	// The peer addresses this physical cable by its own local index of
	// the reverse link, precomputed at construction.
	slot := routes[link].pushSlot(cycle + route.HopCycles)
	if down {
		// Carrier lost: the frame still occupies its deskew slot but
		// arrives as garbage the FEC flags uncorrectable — timing is
		// preserved, the payload is not.
		cl.MBEs++
		cl.noteLinkMBE(l.ID, cycle)
		if cl.rec != nil {
			cl.rec.InstantCycles(int(src), obs.TidLinkBase+link, "c2c.mbe", cycle)
		}
		*slot = tsp.Vector{}
		return
	}
	*slot = *v
	if ber > 0 {
		phys := cl.physLink(l)
		phys.SetBitErrorRate(ber)
		corrected, mbe := phys.TransferVector((*[c2c.VectorBytes]byte)(slot))
		cl.Corrected += int64(corrected)
		if mbe {
			cl.MBEs++
			cl.noteLinkMBE(l.ID, cycle)
			if cl.rec != nil {
				cl.rec.InstantCycles(int(src), obs.TidLinkBase+link, "c2c.mbe", cycle)
			}
		}
	}
}

// take pops the oldest vector that has arrived on the link by the given
// cycle into dst, leaving dst untouched on underflow. An out-of-range
// link index (a program receiving on a link the chip does not have)
// degrades to an underflow, the same schedule-lied fault a correct link
// with no data raises.
func (cl *Cluster) take(dst topo.TSPID, link int, cycle int64, dstVec *tsp.Vector) bool {
	mb := cl.posts[dst]
	if link < 0 || link >= len(mb.queues) {
		cl.underflows.Inc()
		return false
	}
	q := &mb.queues[link]
	if q.len() == 0 || q.front().arrival > cycle {
		cl.underflows.Inc()
		return false
	}
	q.popInto(dstVec)
	return true
}

// chipHeap is a value-typed binary min-heap of runnable chips keyed by
// (next-issue cycle, chip index). The strict total order makes the pop
// sequence identical to the old linear min-scan (which broke ties toward
// the lowest chip index) at O(log N) per reschedule instead of O(N) per
// instruction.
type chipHeap []chipHeapEntry

type chipHeapEntry struct {
	t   int64
	idx int
}

func (h chipHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].idx < h[j].idx
}

func (h *chipHeap) push(e chipHeapEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *chipHeap) pop() chipHeapEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	h.down()
	return top
}

// reschedule settles the chip at the top after it ran: back in the heap
// at its next issue cycle when ok, out of it otherwise. Keying the top in
// place and sifting it down leaves the same set as a pop followed by a
// push, so the pop sequence is the same.
func (h *chipHeap) reschedule(next int64, ok bool) {
	if !ok {
		h.pop()
		return
	}
	(*h)[0].t = next
	h.down()
}

// down sifts the top entry down to its place.
func (h chipHeap) down() {
	n := len(h)
	i := 0
	for {
		min := i
		if l := 2*i + 1; l < n && h.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// secondT returns the least key below the top, the top's two children
// holding the minimum of the rest; ok is false when the top is alone.
func (h chipHeap) secondT() (t int64, ok bool) {
	switch {
	case len(h) > 2 && h[2].t < h[1].t:
		return h[2].t, true
	case len(h) > 1:
		return h[1].t, true
	}
	return 0, false
}

// runnableHeap seeds a heap with every listed chip that has pending work.
func (cl *Cluster) runnableHeap(chips []int) chipHeap {
	h := make(chipHeap, 0, len(chips))
	for _, i := range chips {
		if _, t, ok := cl.chips[i].NextIssue(); ok {
			h.push(chipHeapEntry{t: t, idx: i})
		}
	}
	return h
}

// allChips lists every chip index in ascending order.
func (cl *Cluster) allChips() []int {
	all := make([]int, len(cl.chips))
	for i := range all {
		all[i] = i
	}
	return all
}

// Run executes every chip to completion in globally time-ordered lockstep:
// at each step the chip with the earliest pending instruction issues. This
// is exactly the total order the SSN compiler reasoned about, so a correct
// schedule never underflows a receiver. It returns the global finish cycle.
//
// Run picks the executor; both choices are byte-identical to RunSequential
// in finish cycle, chip state, counters and traces, and Executor reports
// which one ran and why:
//
//   - A clean fabric runs the component executor (see components.go):
//     each connected component of the static send graph is its own
//     sequential heap, handed to up to SetWorkers goroutines. A faulted
//     run reports RunSequential's error and finish cycle; the chips it
//     abandons stop at the same points at every worker count.
//   - Every other run takes RunSequential: a checkpoint or series cadence
//     (captured at heap barriers), a recorder (one trace), a fault plan
//     (one fault schedule), or a bit error rate (one delivery-ordered
//     error RNG).
func (cl *Cluster) Run() (int64, error) {
	var reason string
	switch {
	case cl.ckptEvery > 0:
		reason = "checkpoint cadence"
	case cl.seriesEvery > 0:
		reason = "series cadence"
	case cl.rec != nil:
		reason = "recorder"
	case cl.fplan != nil:
		reason = "fault plan"
	case cl.ber != 0:
		reason = "bit error rate"
	default:
		comps := cl.components()
		cl.exec = Executor{Name: "components", Reason: "clean fabric", Components: len(comps)}
		finish, err := cl.runComponents(comps)
		cl.noteRunEnd(finish)
		return finish, err
	}
	cl.exec = Executor{Name: "sequential", Reason: reason, Components: 1}
	return cl.RunSequential()
}

// RunSequential is the single-threaded reference executor: one min-heap
// of every chip keyed by next-issue cycle, popping the earliest (ties
// toward the lowest chip index) and executing all of that chip's
// instructions at that cycle. Armed checkpoint and series cadences are
// captured at its heap barriers (see runHeap), plus one final series
// sample at the finish cycle of a run that ends without error.
func (cl *Cluster) RunSequential() (int64, error) {
	var finish int64
	var err error
	if fi := cl.runHeap(cl.allChips()); fi >= 0 {
		finish, err = cl.chips[fi].FinishCycle(), cl.chips[fi].Fault()
	} else if finish, err = cl.finish(); err == nil && cl.seriesEvery > 0 {
		// Close every series at the finish cycle so post-run analysis sees
		// end-of-run totals without needing the flat metrics dump.
		cl.sampleSeries(finish)
	}
	cl.noteRunEnd(finish)
	return finish, err
}

// runHeap runs the listed chips on one sequential heap until each has
// finished or parked for good, or until the earliest fault among them in
// (cycle, chip) order, whose chip it returns (-1 when none faulted). The
// chips must be closed under sends: none may deliver to a chip outside
// the list while it runs.
//
// The top of each pop is a barrier: every listed chip has executed
// exactly the instructions below the heap minimum, and every send below
// it has been delivered into the mailboxes, which then hold the complete
// in-flight link state. Armed cadences fire there, once the minimum has
// crossed their line, and every batch horizon is clamped to the next
// line, so no chip steps past a due capture. A capture's contents are
// therefore a function of the cadence and the programs alone. Cadences
// are only armed on runs that take RunSequential, so the component
// executor's concurrent heaps never reach these branches.
func (cl *Cluster) runHeap(chips []int) int {
	h := cl.runnableHeap(chips)
	for len(h) > 0 {
		// Series before checkpoint at the same barrier, so a snapshot's obs
		// section carries the barrier's sample and a restored run resumes
		// with identical series state.
		if t := h[0].t; cl.seriesEvery > 0 && t >= cl.seriesNext {
			cl.sampleSeries(t)
			cl.seriesNext = (t/cl.seriesEvery + 1) * cl.seriesEvery
		}
		if t := h[0].t; cl.ckptEvery > 0 && t >= cl.ckptNext {
			cl.captureCheckpoint(t)
		}
		// The chip at the top runs there and is rescheduled in place.
		e := h[0]
		// A chip scheduled to die at or before this cycle never issues
		// again: its remaining program is abandoned, and only its silence
		// (receiver underflows, missed heartbeats) is observable.
		if cl.death != nil && e.t >= cl.death[e.idx] {
			h.pop()
			continue
		}
		// Batch the top chip through the conservative lookahead: with
		// every other chip's next issue at or after m = h.secondT(), all
		// cross-chip data this chip can legally consume before
		// m + HopCycles is already in its mailboxes (a vector sent at
		// cycle s is invisible before s + HopCycles, and every send before
		// m has been delivered). Chip-local effects commute across chips,
		// per-link delivery order is each single sender's own cycle order
		// either way, and shared tallies and trace exports are
		// order-independent, so the result is byte-identical to the
		// one-cycle-at-a-time pop order — while paying one heap round-trip
		// per batch instead of one per cycle.
		horizon := e.t + 1
		if m, ok := h.secondT(); ok {
			if m += int64(route.HopCycles); m > horizon {
				horizon = m
			}
		} else {
			// Last runnable chip: nothing can feed it beyond what is
			// already queued, so it may run out entirely.
			horizon = math.MaxInt64
		}
		// Both cadence lines are past e.t after the checks above, so the
		// clamped horizon still makes progress.
		if cl.ckptEvery > 0 && horizon > cl.ckptNext {
			horizon = cl.ckptNext
		}
		if cl.seriesEvery > 0 && horizon > cl.seriesNext {
			horizon = cl.seriesNext
		}
		if cl.death != nil && cl.death[e.idx] < horizon {
			// Instructions at or past the scheduled death never execute.
			horizon = cl.death[e.idx]
		}
		next, ok := cl.chips[e.idx].StepUntil(horizon)
		// A faulted chip reports !ok, so it leaves the heap here and
		// earliestFault settles it against the other chips only.
		h.reschedule(next, ok)
		if cl.chips[e.idx].Fault() != nil {
			return cl.earliestFault(h, e.idx)
		}
	}
	return -1
}

// eventBefore orders two faults, each at a cycle on a chip, in the
// sequential executor's (cycle, chip) order.
func eventBefore(c1 int64, i1 int, c2 int64, i2 int) bool {
	return c1 < c2 || (c1 == c2 && i1 < i2)
}

// earliestFault settles a fault on chip fi against the heap: a batch runs
// past cycles other chips have not reached, so one of them may fault
// earlier in (cycle, chip) order. Entries ordered before the fault are
// stepped one issue cycle at a time, the unbatched pop order, and an
// earlier fault takes over. h must not hold chip fi. It returns the chip
// of the earliest fault.
func (cl *Cluster) earliestFault(h chipHeap, fi int) int {
	for len(h) > 0 {
		e := h[0]
		if !eventBefore(e.t, e.idx, cl.chips[fi].Fault().Cycle, fi) {
			break
		}
		if cl.death != nil && e.t >= cl.death[e.idx] {
			h.pop()
			continue
		}
		next, ok := cl.chips[e.idx].StepUntil(e.t + 1)
		h.reschedule(next, ok)
		if cl.chips[e.idx].Fault() != nil {
			fi = e.idx
		}
	}
	return fi
}

// finish is the common run epilogue: wedge detection in ascending chip
// order, global finish cycle, and the §4.5 replay cue on uncorrectable
// link errors.
func (cl *Cluster) finish() (int64, error) {
	var finish int64
	for i, chip := range cl.chips {
		if !chip.Done() {
			if cl.death != nil && cl.death[i] != chipAlive {
				return chip.FinishCycle(), fmt.Errorf("runtime: chip %d dead (scheduled fault at cycle %d); failover required", chip.ID, cl.death[i])
			}
			if f := chip.Fault(); f != nil {
				return chip.FinishCycle(), f
			}
			return chip.FinishCycle(), fmt.Errorf("runtime: chip %d wedged (fully parked)", chip.ID)
		}
		if chip.FinishCycle() > finish {
			finish = chip.FinishCycle()
		}
	}
	if cl.MBEs > 0 {
		// Detected-uncorrectable link errors were flagged in situ; the
		// results cannot be trusted and the runtime must replay (§4.5).
		return finish, fmt.Errorf("runtime: %d uncorrectable link errors detected; replay required", cl.MBEs)
	}
	return finish, nil
}

// RunWithReplay implements §4.5's software-replay strategy: build the
// cluster, run the inference, and on a detected-uncorrectable fault retire
// the attempt and replay from scratch (the runtime re-emplaces state on
// known-good hardware). build is called once per attempt so each replay
// starts from clean state; it may also repair/replace the faulty
// resources. It records into rec. Returns the finish cycle, the number of
// attempts used, and the last error if all attempts failed.
func RunWithReplay(rec *obs.Recorder, build func(attempt int) (*Cluster, error), maxAttempts int) (int64, int, error) {
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		cl, err := build(attempt)
		if err != nil {
			return 0, attempt, err
		}
		finish, err := cl.Run()
		if err == nil {
			if attempt > 1 {
				rec.Counter("runtime.replays_recovered").Inc()
			}
			return finish, attempt, nil
		}
		lastErr = err
		// Every obs call is nil-safe, so no rec guard; the instant is
		// stamped at the cycle the failure became observable (fault cycle
		// or first uncorrectable frame), not the failed run's finish.
		rec.Counter("runtime.replay_attempts").Inc()
		rec.InstantCycles(obs.PidFabric, 0, "runtime.replay", cl.DetectCycle(finish, err))
	}
	rec.Counter("runtime.replays_exhausted").Inc()
	return 0, maxAttempts, fmt.Errorf("runtime: replay budget exhausted: %w", lastErr)
}
