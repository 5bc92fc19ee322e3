// Fault-plan integration: the cluster consumes a compiled faultplan as
// cycle-stamped events merged into the sequential executor, and exposes the
// deterministic health telemetry (heartbeats, per-link FEC records) the
// §4.5 monitor diagnoses.
//
// Plan events are stamped in wall-clock cycles; the cluster runs in
// run-local cycles starting at a base wall cycle (SetFaultPlan). A replay
// re-bases a fresh cluster later on the wall clock, so transient events
// from the failed attempt's window do not recur while permanent ones do —
// until the ladder repairs the link or fails the node over.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/c2c"
	"repro/internal/faultplan"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// chipAlive marks a chip with no scheduled death in this run.
const chipAlive = math.MaxInt64

// faultTid is the trace track (on obs.PidFabric) carrying fault.injected
// instants.
const faultTid = 2

// SetFaultPlan arms the cluster with a compiled fault schedule. baseCycle
// is the wall-clock cycle at which this run's cycle 0 occurs; seed feeds
// the per-link error-model RNG when SetBitErrorRate has not installed one.
func (cl *Cluster) SetFaultPlan(fp *faultplan.Compiled, baseCycle int64, seed uint64) {
	cl.fplan = fp
	cl.fbase = baseCycle
	if cl.errRNG == nil {
		cl.errRNG = sim.NewRNG(seed)
	}
	if cl.links == nil {
		cl.links = make(map[topo.LinkID]*c2c.Link)
	}
	cl.death = make([]int64, len(cl.chips))
	for t := range cl.chips {
		cl.death[t] = chipAlive
		if d, ok := fp.DeathCycle(topo.TSPID(t)); ok {
			local := d - baseCycle
			if local < 0 {
				local = 0 // died before this run started: never executes
			}
			cl.death[t] = local
		}
	}
}

// ShareLinkModels installs an externally owned per-link error-model map
// and its parent RNG, so link state (re-characterization margins, flap
// counters) persists across the cluster rebuilds of a recovery ladder.
// RNG forks are order-independent, so lazily materializing a link from
// attempt N yields the same stream as from attempt 1.
func (cl *Cluster) ShareLinkModels(links map[topo.LinkID]*c2c.Link, rng *sim.RNG) {
	cl.links = links
	cl.errRNG = rng
}

// MarkLinkRepaired excludes a link from the fault plan: the ladder
// re-characterized it (hac.Recharacterize), so its scheduled excursions
// and carrier losses no longer apply.
func (cl *Cluster) MarkLinkRepaired(l topo.LinkID) {
	if cl.repaired == nil {
		cl.repaired = map[topo.LinkID]bool{}
	}
	cl.repaired[l] = true
}

// physLink lazily materializes the physical error model for a link.
func (cl *Cluster) physLink(l topo.Link) *c2c.Link {
	phys, ok := cl.links[l.ID]
	if !ok {
		phys = cl.newLink(l, cl.errRNG)
		cl.links[l.ID] = phys
	}
	return phys
}

// newLink builds link l's error model, its stream forked from src by link
// id, with link-labelled c2c.* counters. The unlabelled aggregate keys it
// registers first stay 0, but every recorded cluster with a bit error
// rate has always exported them (metrics, series, checkpoint blobs).
func (cl *Cluster) newLink(l topo.Link, src *sim.RNG) *c2c.Link {
	cfg := l.Cable
	cfg.BitErrorRate = cl.ber
	phys := c2c.New(cfg, src.Fork(uint64(l.ID)))
	if cl.rec != nil {
		phys.Instrument(cl.rec)
		phys.Instrument(cl.rec, obs.L("link", fmt.Sprintf("L%04d", l.ID)))
	}
	return phys
}

// noteLinkMBE records an uncorrectable frame for the health report. cycle
// is run-local. The "first" records keep the minimum cycle rather than
// the first note: the batched sequential executor may deliver one chip's
// lookahead-batch sends before another chip's earlier-cycle sends, so
// note order is not globally cycle-sorted — but the minimum is the same
// earliest MBE every executor observes.
func (cl *Cluster) noteLinkMBE(l topo.LinkID, cycle int64) {
	if cl.linkMBEs == nil {
		cl.linkMBEs = map[topo.LinkID]int64{}
		cl.linkFirstMBE = map[topo.LinkID]int64{}
	}
	if cl.linkMBEs[l] == 0 || cycle < cl.linkFirstMBE[l] {
		cl.linkFirstMBE[l] = cycle
	}
	cl.linkMBEs[l]++
	if cl.firstMBECycle < 0 || cycle < cl.firstMBECycle {
		cl.firstMBECycle = cycle
	}
}

// DetectCycle is the run-local cycle at which the failure that ended the
// run became observable: a chip fault's own cycle, else the first
// uncorrectable link frame, else the finish cycle itself.
func (cl *Cluster) DetectCycle(finish int64, err error) int64 {
	var f *tsp.Fault
	if errors.As(err, &f) {
		return f.Cycle
	}
	if cl.firstMBECycle >= 0 {
		return cl.firstMBECycle
	}
	return finish
}

// RanTo reports the finish cycle of the last Run (run-local), successful
// or not — the horizon up to which health telemetry is meaningful.
func (cl *Cluster) RanTo() int64 { return cl.endCycle }

// Base reports the wall-clock cycle of this run's cycle 0.
func (cl *Cluster) Base() int64 { return cl.fbase }

// noteRunEnd is the common executor epilogue: record the horizon and emit
// one fault.injected instant (plus a per-kind counter) for every plan
// event that fell inside the run. end is identical across executors, so
// the emitted multiset is too.
func (cl *Cluster) noteRunEnd(end int64) {
	cl.endCycle = end
	if cl.fplan == nil {
		return
	}
	if cl.rec != nil {
		cl.rec.SetThreadName(obs.PidFabric, faultTid, "faults")
	}
	for _, e := range cl.fplan.Events() {
		local := e.Cycle - cl.fbase
		if local < 0 || local > end {
			continue
		}
		cl.rec.Counter("fault.injected", obs.L("kind", e.Kind.String())).Inc()
		if cl.rec != nil {
			cl.rec.InstantCycles(obs.PidFabric, faultTid, "fault.injected", local)
		}
	}
}

// HealthReport synthesizes the monitor's view of the cluster at a
// wall-clock horizon: each chip's last heartbeat (a chip heartbeats every
// interval cycles while alive) and each suspect link's FEC error record.
// It is pure arithmetic over the death schedule and the MBE notes, so
// identical runs yield identical reports at any worker count.
func (cl *Cluster) HealthReport(horizonWall, intervalCycles int64) faultplan.HealthReport {
	rep := faultplan.HealthReport{Horizon: horizonWall}
	for t := range cl.chips {
		lastAlive := horizonWall
		if cl.death != nil && cl.death[t] != chipAlive {
			if deadWall := cl.fbase + cl.death[t]; deadWall <= horizonWall {
				lastAlive = deadWall - 1 // no heartbeat at or after death
			}
		}
		hb := int64(0)
		if lastAlive >= 0 {
			hb = (lastAlive / intervalCycles) * intervalCycles
		}
		rep.Chips = append(rep.Chips, faultplan.ChipHealth{Chip: topo.TSPID(t), LastHeartbeat: hb})
	}
	ids := make([]topo.LinkID, 0, len(cl.linkMBEs))
	for id := range cl.linkMBEs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rep.Links = append(rep.Links, faultplan.LinkHealth{
			Link:          id,
			MBEs:          cl.linkMBEs[id],
			FirstMBECycle: cl.fbase + cl.linkFirstMBE[id],
		})
	}
	return rep
}
