// The §4.5 recovery ladder, end to end:
//
//	FEC-correct            — in situ, timing-neutral (c2c + ecc)
//	→ software replay      — RunWithReplay, with per-attempt link repair
//	                         (hac.Recharacterize widens the deskew FIFO of
//	                         a suspect link; the plan then spares it)
//	→ N+1 node failover    — Allocation.FailNode + cluster rebuild on the
//	                         remapped TSPs
//	→ degraded serving     — the ladder reports spares-exhausted upward;
//	                         internal/serve models the capacity loss.
//
// The Ladder owns the wall clock: each failed attempt is diagnosed by the
// health monitor at a deterministic horizon, the next attempt re-bases
// after a fixed turnaround, and every rung leaves a recovery.* counter and
// trace instant. Everything — detection cycles, repair decisions, failover
// choices, final finish cycle — is pure arithmetic over the fault plan and
// the run telemetry, so identical seeds walk the identical ladder at any
// worker count.
package runtime

import (
	"errors"
	"fmt"

	"repro/internal/c2c"
	"repro/internal/checkpoint"
	"repro/internal/faultplan"
	"repro/internal/hac"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// recoveryTid is the trace track (on obs.PidFabric) carrying recovery.*
// instants.
const recoveryTid = 3

// RecoveryTurnaroundCycles is the fixed wall-clock gap between a failed
// attempt's diagnosis horizon and the replay's cycle 0: the cost of
// re-emplacing state on known-good hardware.
const RecoveryTurnaroundCycles = 1024

// characterizeIters is the reflect-protocol depth of a link repair.
const characterizeIters = 64

// nodeFault escalates a diagnosed node/chip death out of the replay rung:
// returned as a build error from inside RunWithReplay, it aborts the
// replay loop so the ladder can fail the nodes over instead of burning
// replay budget on hardware that cannot come back.
type nodeFault struct {
	nodes  []topo.NodeID
	detect int64 // wall cycle the last death became observable
}

func (e *nodeFault) Error() string {
	return fmt.Sprintf("runtime: nodes %v dead (detected at wall cycle %d); failover required", e.nodes, e.detect)
}

// Ladder drives the recovery ladder over a fault plan.
type Ladder struct {
	Sys     *topo.System
	Alloc   *Allocation
	Plan    *faultplan.Compiled
	Monitor faultplan.Monitor
	// Build constructs a fresh cluster for the current allocation — called
	// once per attempt, so every replay starts from clean state on the
	// (possibly remapped) TSPs.
	Build func(a *Allocation) (*Cluster, error)
	// MaxReplays is the replay budget per failover generation;
	// MaxFailovers bounds node retirements before the ladder gives up.
	MaxReplays   int
	MaxFailovers int
	// Seed feeds the per-link error models (shared across attempts so
	// re-characterization margins persist).
	Seed uint64
	// CheckpointEvery arms epoch-barrier checkpointing on every attempt:
	// a failed replay resumes from the newest clean snapshot preceding
	// its detection cycle instead of re-basing to cycle 0. Zero keeps the
	// original cycle-0 replay rung. Corrupted or missing snapshots fall
	// back to cycle 0 automatically (the corrupted-checkpoint rung).
	CheckpointEvery int64
	// Recorder records the walk; Run attaches it to every cluster Build
	// returns.
	Recorder *obs.Recorder
}

// LadderResult reports a completed ladder walk.
type LadderResult struct {
	// Finish is the successful attempt's run-local finish cycle; Base is
	// the wall cycle its cycle 0 occupied, so Base+Finish is the wall
	// completion time including every replay and turnaround.
	Finish int64
	Base   int64
	// Attempts counts cluster runs; Replays those after the first;
	// Failovers the node-retirement generations.
	Attempts  int
	Replays   int
	Failovers int
	// Resumes counts replays that restarted from a checkpoint instead of
	// cycle 0; ResumedFrom lists the capture cycles used, in order. A
	// resumed replay re-executes Finish − ResumedFrom[i] cycles instead
	// of Finish.
	Resumes     int
	ResumedFrom []int64
	// RepairedLinks were re-characterized and spared; FailedNodes were
	// retired onto spares.
	RepairedLinks []topo.LinkID
	FailedNodes   []topo.NodeID
	// Cluster is the successful run's cluster, for reading results.
	Cluster *Cluster
}

// Run walks the ladder until an attempt completes cleanly or a budget is
// exhausted. On spare exhaustion the returned error wraps the allocation's
// failure so callers can drop to degraded serving.
func (ld *Ladder) Run() (*LadderResult, error) {
	rec := ld.Recorder
	rec.SetThreadName(obs.PidFabric, recoveryTid, "recovery")
	res := &LadderResult{}
	// Per-link physical error models live here, not on any one cluster, so
	// a link repaired after attempt N keeps its widened margin in N+1.
	physLinks := map[topo.LinkID]*c2c.Link{}
	physRNG := sim.NewRNG(ld.Seed)
	repaired := map[topo.LinkID]bool{}
	base := int64(0)
	var last *Cluster

	for gen := 0; ; gen++ {
		finish, _, err := RunWithReplay(rec, func(attempt int) (*Cluster, error) {
			cl, err := ld.Build(ld.Alloc)
			if err != nil {
				return nil, err
			}
			cl.SetRecorder(rec)
			if ld.CheckpointEvery > 0 {
				cl.SetCheckpointCadence(ld.CheckpointEvery)
			}
			if last == nil {
				cl.ShareLinkModels(physLinks, physRNG)
				cl.SetFaultPlan(ld.Plan, base, ld.Seed)
				res.Attempts++
				last = cl
				return cl, nil
			}
			// Diagnose the failed attempt at the deterministic horizon by
			// which every heartbeat verdict has matured.
			horizon := last.Base() + last.RanTo() + ld.Monitor.DeadlineCycles + 1
			diag := ld.Monitor.Diagnose(last.HealthReport(horizon, ld.Monitor.IntervalCycles))
			if nf := ld.escalations(diag, repaired); nf != nil {
				return nil, nf
			}
			// The resume rung: restore the newest clean snapshot preceding
			// the detection cycle. Undecodable snapshots are skipped toward
			// older ones; no usable snapshot falls through to cycle 0.
			var snap *checkpoint.Snapshot
			var prefix []Stored
			if ld.CheckpointEvery > 0 {
				snap, prefix = pickSnapshot(last, rec)
				if snap != nil {
					if rerr := cl.RestoreSnapshot(snap); rerr != nil {
						rec.Counter("checkpoint.corrupt_discarded").Inc()
						snap = nil
					}
				}
			}
			if snap != nil {
				// Resuming keeps the original wall base: the restored state
				// is the wall-clock past replayed exactly, so transient
				// fault windows recur — harmlessly, because the suspect
				// link is repaired below before the run starts. The replay
				// now re-executes Finish − CaptureCycle cycles, not Finish.
				cl.SetFaultPlan(ld.Plan, snap.BaseWall, ld.Seed)
				cl.SeedCheckpoints(prefix)
				physLinks, physRNG = cl.LinkModels()
				base = snap.BaseWall
				res.Resumes++
				res.ResumedFrom = append(res.ResumedFrom, snap.CaptureCycle)
				rec.Counter("checkpoint.restore_source", obs.L("source", "snapshot")).Inc()
				rec.SetThreadName(obs.PidFabric, checkpointTid, "checkpoints")
				rec.InstantCycles(obs.PidFabric, checkpointTid, "checkpoint.restore", snap.CaptureCycle)
			} else {
				if ld.CheckpointEvery > 0 {
					rec.Counter("checkpoint.restore_source", obs.L("source", "cycle0")).Inc()
				}
				base = horizon + RecoveryTurnaroundCycles
				cl.ShareLinkModels(physLinks, physRNG)
				cl.SetFaultPlan(ld.Plan, base, ld.Seed)
			}
			// Repair the diagnosed links on the cluster that runs next. On
			// the resume path this must follow the restore: the snapshot
			// predates the fault, so restoring rewound the link models, and
			// the repair re-applies to the restored objects.
			for _, lid := range diag.SuspectLinks {
				if repaired[lid] {
					continue
				}
				phys := cl.physLink(ld.Sys.Link(lid))
				phys.SetHealth(c2c.Degraded)
				hac.Recharacterize(phys, characterizeIters)
				repaired[lid] = true
				res.RepairedLinks = append(res.RepairedLinks, lid)
				rec.Counter("recovery.link_repairs").Inc()
				rec.InstantCycles(obs.PidFabric, recoveryTid, "recovery.repair", horizon)
			}
			for lid := range repaired {
				cl.MarkLinkRepaired(lid)
			}
			res.Replays++
			rec.Counter("recovery.replays").Inc()
			rec.InstantCycles(obs.PidFabric, recoveryTid, "recovery.replay", base)
			res.Attempts++
			last = cl
			return cl, nil
		}, ld.MaxReplays)

		if err == nil {
			res.Finish = finish
			res.Base = last.Base()
			res.Cluster = last
			return res, nil
		}
		var nf *nodeFault
		if !errors.As(err, &nf) {
			return res, err // replay budget exhausted, or a build failure
		}
		// Failover rung: retire the diagnosed nodes onto spares and prove
		// the remapped program still routes.
		if res.Failovers >= ld.MaxFailovers {
			return res, fmt.Errorf("runtime: failover budget exhausted: %w", nf)
		}
		res.Failovers++
		rec.Counter("recovery.failovers").Inc()
		rec.InstantCycles(obs.PidFabric, recoveryTid, "recovery.failover", nf.detect)
		// Snapshots captured under the old device→chip mapping are
		// meaningless after the remap: per-chip state would land on chips
		// running different programs. The failover rung always rebuilds
		// from cycle 0.
		if last != nil {
			last.SeedCheckpoints(nil)
		}
		for _, n := range nf.nodes {
			if err := ld.Alloc.FailNode(n, rec); err != nil {
				return res, fmt.Errorf("runtime: failover of node %d failed: %w", n, err)
			}
			res.FailedNodes = append(res.FailedNodes, n)
		}
		if err := ld.Alloc.VerifyConnected(); err != nil {
			return res, err
		}
	}
}

// pickSnapshot selects the newest usable snapshot of the failed attempt:
// captured at or before the detection cycle (so it predates the fault's
// first observable effect), decodable (checksum intact), and clean (no
// uncorrectable frames baked in). Undecodable candidates count toward
// checkpoint.corrupt_discarded and the walk continues toward older
// snapshots; exhausting them returns nil — the cycle-0 fallback. The
// returned prefix is the store up to and including the chosen snapshot,
// so the resumed cluster's store matches what the straight run would
// hold at that point.
func pickSnapshot(last *Cluster, rec *obs.Recorder) (*checkpoint.Snapshot, []Stored) {
	stored := last.Checkpoints()
	detect := last.DetectLocal()
	for i := len(stored) - 1; i >= 0; i-- {
		st := stored[i]
		if st.Cycle > detect {
			continue
		}
		snap, err := checkpoint.Decode(st.Blob)
		if err != nil {
			rec.Counter("checkpoint.corrupt_discarded").Inc()
			continue
		}
		if snap.MBEs > 0 {
			continue
		}
		return snap, stored[:i+1]
	}
	return nil, nil
}

// escalations turns a diagnosis into the node retirements it demands:
// dead nodes and stuck chips that host devices (sparing is node-granular,
// so a stuck chip retires its whole node), plus any already-repaired link
// erring again (the repair didn't hold; retire its source node). Nodes
// already failed over are idle and ignored.
func (ld *Ladder) escalations(diag faultplan.Diagnosis, repaired map[topo.LinkID]bool) *nodeFault {
	inUse := map[topo.NodeID]bool{}
	for _, t := range ld.Alloc.tspOf {
		inUse[t.Node()] = true
	}
	seen := map[topo.NodeID]bool{}
	var nodes []topo.NodeID
	add := func(n topo.NodeID) {
		if inUse[n] && !ld.Alloc.failed[n] && !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for _, n := range diag.DeadNodes {
		add(n)
	}
	for _, c := range diag.StuckChips {
		add(c.Node())
	}
	for _, lid := range diag.SuspectLinks {
		if repaired[lid] {
			add(ld.Sys.Link(lid).From.Node())
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	return &nodeFault{nodes: nodes, detect: diag.DetectCycle}
}
