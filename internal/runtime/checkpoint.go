// Epoch-barrier checkpointing: capture the whole cluster at heap
// barriers, restore it into a freshly built cluster mid-flight.
//
// Capture points are worker-invariant by construction: arming a cadence
// routes Run to the sequential executor at any worker count, and the
// capture check fires only at the top of a heap pop (runHeap) — when the
// heap minimum has crossed the cadence line, so every chip has executed
// exactly the instructions below it and every send below it has been
// delivered into the mailboxes. At that instant the mailbox queues ARE
// the complete in-flight link state, which is what makes the snapshot a
// closed restart point rather than a drain protocol. Batching preserves
// this: runHeap clamps every batch horizon to the next armed cadence
// line, so a long quiet-phase batch can never step a chip past a due
// capture (TestCheckpointCadenceMidExtendedWindow).
//
// A capture costs about the bytes it writes, plus what changed since the
// last one. Each chip captures in place into its delta baseline, which
// the snapshot's Chips then are: the baseline copies only the chip's
// nonzero stream registers and weight rows, into the slices the previous
// capture filled, testing only the weight rows a LoadWeights or restore
// may have made nonzero, and re-encodes only the SRAM vectors the chip
// wrote since the last capture. The blob is allocated once at its exact
// size and encoded straight from the baseline and from the live
// recorder's View, which shares the event list and series samples instead
// of copying them and keeps its names sorted between captures
// (checkpoint.EncodeView). The View orders only the events recorded
// since the last capture, merging the ascending runs the lockstep chips
// record them in. Every event is still encoded again at every capture:
// copying the last blob's bytes for the events that did not move was
// measured and did not pay, because writing the blob's bytes, not
// encoding them, is what the obs section costs.
//
// The counter circularity — `checkpoint.bytes` must itself appear in the
// snapshot's obs section — is resolved by a fixed order: build the
// cluster section, stamp the checkpoint.* counters (bytes = the cluster
// section's length, checkpoint.ClusterLen) and the capture instant, and
// only then take the obs view and encode. A restored run performs the
// identical sequence at the identical cycles, so the counter streams (and
// every later blob) match the straight run byte for byte.
package runtime

import (
	"fmt"
	"sort"

	"repro/internal/c2c"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// checkpointTid is the trace track (on obs.PidFabric) carrying
// checkpoint.* instants.
const checkpointTid = 4

// Stored is one captured checkpoint: the capture cycle (run-local) and
// the encoded, checksummed blob.
type Stored struct {
	Cycle int64
	Blob  []byte
}

// SetCheckpointCadence arms (or, with 0, disarms) checkpoint capture
// every `every` cycles. Captures land on the first heap barrier at or
// past each cadence multiple, so the captured state is identical at any
// worker count; Run takes the sequential executor whenever a cadence is
// armed. Cycle 0 is never captured — a fault before the first cadence
// line replays from scratch, which costs the same.
func (cl *Cluster) SetCheckpointCadence(every int64) {
	if every < 0 {
		every = 0
	}
	cl.ckptEvery = every
	if every > 0 {
		cl.ckptNext = (cl.ckptFrom/every + 1) * every
	}
}

// Checkpoints returns the snapshots captured so far, oldest first. The
// returned slice is the live store — callers that need isolation must
// copy it.
func (cl *Cluster) Checkpoints() []Stored { return cl.ckpts }

// SeedCheckpoints pre-populates the store (with a copy), so a cluster
// restored from snapshot i carries snapshots 0..i exactly as the straight
// run would at that point.
func (cl *Cluster) SeedCheckpoints(s []Stored) {
	cl.ckpts = append([]Stored(nil), s...)
}

// LinkModels exposes the per-link error-model map and its parent RNG, so
// a recovery ladder can adopt a restored cluster's link state as the
// shared state of subsequent attempts.
func (cl *Cluster) LinkModels() (map[topo.LinkID]*c2c.Link, *sim.RNG) {
	return cl.links, cl.errRNG
}

// DetectLocal is the run-local cycle at which the last run's failure
// became observable: the first uncorrectable link frame, else the
// earliest chip fault, else the earliest scheduled death inside the run,
// else the run horizon. The ladder resumes from the newest snapshot at or
// before this cycle — by capture ordering such a snapshot predates the
// fault's first observable effect.
func (cl *Cluster) DetectLocal() int64 {
	if cl.firstMBECycle >= 0 {
		return cl.firstMBECycle
	}
	best := int64(-1)
	for _, ch := range cl.chips {
		if f := ch.Fault(); f != nil && (best < 0 || f.Cycle < best) {
			best = f.Cycle
		}
	}
	if best >= 0 {
		return best
	}
	if cl.death != nil {
		for _, d := range cl.death {
			if d != chipAlive && d <= cl.endCycle && (best < 0 || d < best) {
				best = d
			}
		}
		if best >= 0 {
			return best
		}
	}
	return cl.endCycle
}

// captureCheckpoint snapshots the cluster at heap barrier t (see the
// file comment for why the stamping order matters) and advances the
// cadence line.
func (cl *Cluster) captureCheckpoint(t int64) {
	s := cl.buildSnapshot(t)
	cl.rec.Counter("checkpoint.captures").Inc()
	cl.rec.Counter("checkpoint.bytes").Add(int64(checkpoint.ClusterLen(s)))
	cl.rec.Gauge("checkpoint.last_capture_cycle").Set(t)
	if cl.rec != nil {
		cl.rec.SetThreadName(obs.PidFabric, checkpointTid, "checkpoints")
		cl.rec.InstantCycles(obs.PidFabric, checkpointTid, "checkpoint.capture", t)
	}
	blob := checkpoint.EncodeView(s, cl.rec.View())
	cl.ckpts = append(cl.ckpts, Stored{Cycle: t, Blob: blob})
	cl.ckptNext = (t/cl.ckptEvery + 1) * cl.ckptEvery
}

// buildSnapshot assembles the cluster section of a snapshot at run-local
// cycle t. Called only at heap barriers: every send below t is
// delivered, no chip is faulted. The snapshot's Chips are the delta
// baseline itself, which the next capture overwrites in place, so they
// hold only until then: encode before it.
func (cl *Cluster) buildSnapshot(t int64) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		CaptureCycle:  t,
		BaseWall:      cl.fbase,
		Cadence:       cl.ckptEvery,
		BaseBER:       cl.ber,
		Corrected:     cl.Corrected,
		MBEs:          cl.MBEs,
		FirstMBECycle: cl.firstMBECycle,
	}
	if cl.errRNG != nil {
		s.HasRNG = true
		s.RNGState = cl.errRNG.State()
	}
	// Each chip captures in place into its baseline, which its SRAM's
	// dirty tracking compares against: every capture after the first
	// re-encodes only the vectors the chip wrote since the last one. A
	// fresh (zero) baseline is a full walk; the bytes are the same.
	if cl.ckptPrev == nil {
		cl.ckptPrev = make([]tsp.ChipState, len(cl.chips))
	}
	for i, ch := range cl.chips {
		ch.CaptureState(&cl.ckptPrev[i])
	}
	s.Chips = cl.ckptPrev
	for _, mb := range cl.posts {
		qs := make([][]checkpoint.Envelope, len(mb.queues))
		for qi := range mb.queues {
			q := &mb.queues[qi]
			for k := q.head; k < len(q.buf); k++ {
				qs[qi] = append(qs[qi], checkpoint.Envelope{
					Arrival: q.buf[k].arrival, V: q.buf[k].v,
				})
			}
		}
		s.Mailboxes = append(s.Mailboxes, qs)
	}
	linkIDs := make([]topo.LinkID, 0, len(cl.links))
	for id := range cl.links {
		linkIDs = append(linkIDs, id)
	}
	sort.Slice(linkIDs, func(i, j int) bool { return linkIDs[i] < linkIDs[j] })
	for _, id := range linkIDs {
		s.Links = append(s.Links, checkpoint.LinkEntry{ID: id, State: cl.links[id].State()})
	}
	mbeIDs := make([]topo.LinkID, 0, len(cl.linkMBEs))
	for id := range cl.linkMBEs {
		mbeIDs = append(mbeIDs, id)
	}
	sort.Slice(mbeIDs, func(i, j int) bool { return mbeIDs[i] < mbeIDs[j] })
	for _, id := range mbeIDs {
		s.LinkMBEs = append(s.LinkMBEs, checkpoint.LinkMBE{
			ID: id, Count: cl.linkMBEs[id], FirstCycle: cl.linkFirstMBE[id],
		})
	}
	repIDs := make([]topo.LinkID, 0, len(cl.repaired))
	for id, ok := range cl.repaired {
		if ok {
			repIDs = append(repIDs, id)
		}
	}
	sort.Slice(repIDs, func(i, j int) bool { return repIDs[i] < repIDs[j] })
	s.Repaired = repIDs
	return s
}

// RestoreSnapshot reconstructs the snapshot's cluster state into this
// freshly built cluster: chips, mailboxes, link error models (including
// their RNG cursors and repair margins), FEC tallies, and the repaired
// set. The cluster must be built from the same topology and programs the
// snapshot was captured under; mismatches are reported before any state
// is touched. The recorder is NOT restored — a ladder keeps accumulating
// onto the live recorder. To resume the recording too, SetRecorder a fresh
// recorder primed with the snapshot's Obs state (LoadState) first.
func (cl *Cluster) RestoreSnapshot(s *checkpoint.Snapshot) error {
	if len(s.Chips) != len(cl.chips) {
		return fmt.Errorf("runtime: snapshot has %d chips, cluster has %d", len(s.Chips), len(cl.chips))
	}
	if len(s.Mailboxes) != len(cl.posts) {
		return fmt.Errorf("runtime: snapshot has %d mailboxes, cluster has %d", len(s.Mailboxes), len(cl.posts))
	}
	for i := range s.Mailboxes {
		if len(s.Mailboxes[i]) != len(cl.posts[i].queues) {
			return fmt.Errorf("runtime: snapshot chip %d has %d queues, cluster has %d",
				i, len(s.Mailboxes[i]), len(cl.posts[i].queues))
		}
	}
	nLinks := len(cl.sys.Links())
	for _, le := range s.Links {
		if int(le.ID) < 0 || int(le.ID) >= nLinks {
			return fmt.Errorf("runtime: snapshot link %d outside topology (%d links)", le.ID, nLinks)
		}
	}

	cl.ber = s.BaseBER
	if s.HasRNG {
		if cl.errRNG == nil {
			cl.errRNG = sim.NewRNG(0)
		}
		cl.errRNG.SetState(s.RNGState)
	} else {
		cl.errRNG = nil
	}
	for i := range cl.chips {
		cl.chips[i].SetState(&s.Chips[i])
	}
	// SetState reset each SRAM's dirty tracking; drop the stale baselines
	// so the next capture starts a fresh delta chain with a full walk.
	cl.ckptPrev = nil
	for i := range cl.posts {
		for qi := range cl.posts[i].queues {
			q := &cl.posts[i].queues[qi]
			q.buf = q.buf[:0]
			q.head = 0
			for _, env := range s.Mailboxes[i][qi] {
				q.push(envelope{v: env.V, arrival: env.Arrival})
			}
		}
	}
	cl.links = make(map[topo.LinkID]*c2c.Link, len(s.Links))
	for _, le := range s.Links {
		src := cl.errRNG
		if src == nil {
			// Unreachable from a self-consistent snapshot (links imply an
			// armed error process), but a decoded blob is external input.
			src = sim.NewRNG(0)
		}
		// newLink draws the meanShift placeholder from the fork; SetState then
		// overwrites both the shift and the RNG cursor with the captured
		// values, so the fork source never influences restored behavior.
		phys := cl.newLink(cl.sys.Link(le.ID), src)
		phys.SetState(le.State)
		cl.links[le.ID] = phys
	}
	cl.Corrected = s.Corrected
	cl.MBEs = s.MBEs
	cl.firstMBECycle = s.FirstMBECycle
	cl.linkMBEs = nil
	cl.linkFirstMBE = nil
	for _, lm := range s.LinkMBEs {
		if cl.linkMBEs == nil {
			cl.linkMBEs = map[topo.LinkID]int64{}
			cl.linkFirstMBE = map[topo.LinkID]int64{}
		}
		cl.linkMBEs[lm.ID] = lm.Count
		cl.linkFirstMBE[lm.ID] = lm.FirstCycle
	}
	cl.repaired = nil
	for _, id := range s.Repaired {
		cl.MarkLinkRepaired(id)
	}
	cl.fbase = s.BaseWall
	cl.ckptFrom = s.CaptureCycle
	if cl.ckptEvery > 0 {
		cl.ckptNext = (s.CaptureCycle/cl.ckptEvery + 1) * cl.ckptEvery
	}
	if cl.seriesEvery > 0 {
		// The snapshot's obs section already holds every sample up to the
		// capture barrier; resume sampling strictly after it.
		cl.seriesNext = (s.CaptureCycle/cl.seriesEvery + 1) * cl.seriesEvery
	}
	return nil
}
