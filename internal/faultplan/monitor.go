package faultplan

import (
	"sort"

	"repro/internal/hac"
	"repro/internal/topo"
)

// Monitor is the runtime health monitor of the §4.5 recovery ladder. Each
// chip heartbeats on a fixed cadence derived from the HAC epoch; a chip
// whose last heartbeat is older than the deadline at observation time is
// declared dead. The deadline reuses the §3.2 synchronization bound
// (hac.HeartbeatDeadlineCycles) so detection latency is a function of the
// same characterized link latency that bounds initial sync.
type Monitor struct {
	// IntervalCycles is the heartbeat cadence in fabric cycles.
	IntervalCycles int64
	// DeadlineCycles is the staleness bound: a chip is dead when
	// horizon − lastHeartbeat > DeadlineCycles.
	DeadlineCycles int64
}

// NewMonitor builds a monitor that expects a heartbeat every
// intervalEpochs HAC epochs over links no slower than maxLinkLatencyCycles.
func NewMonitor(intervalEpochs int, maxLinkLatencyCycles int64) Monitor {
	if intervalEpochs < 1 {
		intervalEpochs = 1
	}
	return Monitor{
		IntervalCycles: int64(intervalEpochs) * hac.Period,
		DeadlineCycles: hac.HeartbeatDeadlineCycles(intervalEpochs, maxLinkLatencyCycles),
	}
}

// ChipHealth is one chip's monitor-visible state at the report horizon.
type ChipHealth struct {
	Chip topo.TSPID
	// LastHeartbeat is the wall cycle of the chip's last heartbeat.
	LastHeartbeat int64
}

// LinkHealth is one link's FEC error record at the report horizon.
type LinkHealth struct {
	Link topo.LinkID
	// MBEs counts uncorrectable frames observed on the link.
	MBEs int64
	// FirstMBECycle is the wall cycle of the first uncorrectable frame.
	FirstMBECycle int64
}

// HealthReport is a deterministic snapshot the executor hands the monitor:
// every chip's last heartbeat and every suspect link's error record, all
// in wall cycles, gathered at Horizon.
type HealthReport struct {
	Horizon int64
	Chips   []ChipHealth
	Links   []LinkHealth
}

// Diagnosis is the monitor's verdict on a report, ordered for the ladder:
// dead nodes force failover, stuck chips force their node out too (sparing
// is node-granular), suspect links get re-characterized before replay.
type Diagnosis struct {
	// DeadNodes are nodes none of whose chips met the deadline.
	DeadNodes []topo.NodeID
	// StuckChips are late chips on nodes that are otherwise alive.
	StuckChips []topo.TSPID
	// SuspectLinks carried uncorrectable frames.
	SuspectLinks []topo.LinkID
	// DetectCycle is the wall cycle at which the *last* of the verdicts
	// became observable: heartbeat deadline expiry for deaths, first
	// uncorrectable frame for links. Zero-valued when nothing is wrong.
	DetectCycle int64
}

// Diagnose applies the deadline math to a report. It is pure arithmetic on
// the report's cycle stamps, so identical reports yield identical
// diagnoses regardless of executor or worker count.
func (m Monitor) Diagnose(rep HealthReport) Diagnosis {
	var d Diagnosis
	// Group late chips by node: a fully-late node is dead (failover), a
	// partially-late one has stuck chips (still failover, node-granular,
	// but reported distinctly for the counters).
	lateByNode := map[topo.NodeID][]ChipHealth{}
	chipsByNode := map[topo.NodeID]int{}
	for _, ch := range rep.Chips {
		n := ch.Chip.Node()
		chipsByNode[n]++
		if rep.Horizon-ch.LastHeartbeat > m.DeadlineCycles {
			lateByNode[n] = append(lateByNode[n], ch)
		}
	}
	nodes := make([]topo.NodeID, 0, len(lateByNode))
	for n := range lateByNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		late := lateByNode[n]
		for _, ch := range late {
			if detect := ch.LastHeartbeat + m.DeadlineCycles + 1; detect > d.DetectCycle {
				d.DetectCycle = detect
			}
		}
		if len(late) == chipsByNode[n] {
			d.DeadNodes = append(d.DeadNodes, n)
		} else {
			for _, ch := range late {
				d.StuckChips = append(d.StuckChips, ch.Chip)
			}
		}
	}
	sort.Slice(d.StuckChips, func(i, j int) bool { return d.StuckChips[i] < d.StuckChips[j] })
	for _, lh := range rep.Links {
		if lh.MBEs == 0 {
			continue
		}
		d.SuspectLinks = append(d.SuspectLinks, lh.Link)
		if lh.FirstMBECycle > d.DetectCycle {
			d.DetectCycle = lh.FirstMBECycle
		}
	}
	sort.Slice(d.SuspectLinks, func(i, j int) bool { return d.SuspectLinks[i] < d.SuspectLinks[j] })
	return d
}
