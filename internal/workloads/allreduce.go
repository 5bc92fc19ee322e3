package workloads

import (
	"repro/internal/baseline"
	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
)

// Fig 16: realized bandwidth of an 8-way All-Reduce versus tensor size,
// comparing the scheduled TSP fabric against an 8×A100 NVSwitch system
// (NCCL ring) and the pin-bandwidth-normalized A100 series.

// Fig16Point is one tensor size of the sweep.
type Fig16Point struct {
	Bytes int64
	// TSPBusBW is the scheduled fabric's realized bus bandwidth (GB/s).
	TSPBusBW float64
	// TSPLatencyUS is the collective's completion time.
	TSPLatencyUS float64
	// A100BusBW is the NCCL ring model.
	A100BusBW float64
	// A100NormBusBW is A100 rescaled to TSP pin bandwidth.
	A100NormBusBW float64
}

// analyticThresholdVectors bounds the tensor size scheduled explicitly;
// larger tensors use the closed form (validated against the scheduler in
// the tests — the schedule is perfectly regular, so the formula is exact).
const analyticThresholdVectors = 2048

// Fig16 sweeps the given tensor sizes on one node, recording every
// explicitly scheduled All-Reduce into rec (nil records nothing).
func Fig16(sys *topo.System, sizes []int64, rec *obs.Recorder) ([]Fig16Point, error) {
	var pts []Fig16Point
	for _, s := range sizes {
		cycles, err := allReduceCycles(sys, s, rec)
		if err != nil {
			return nil, err
		}
		r := collective.Result{Participants: topo.TSPsPerNode, Bytes: s, Cycles: cycles}
		pts = append(pts, Fig16Point{
			Bytes:         s,
			TSPBusBW:      r.BusBandwidthGBps(),
			TSPLatencyUS:  r.Microseconds(),
			A100BusBW:     baseline.RingAllReduceBusBW(8, s),
			A100NormBusBW: baseline.NormalizeToTSPPin(baseline.RingAllReduceBusBW(8, s)),
		})
	}
	return pts, nil
}

// allReduceCycles picks the explicit scheduler for small tensors, whose
// schedule it records into rec, and the exact closed form for large ones.
func allReduceCycles(sys *topo.System, bytes int64, rec *obs.Recorder) (int64, error) {
	shardVecs := int((bytes/topo.TSPsPerNode + 319) / 320)
	if shardVecs <= analyticThresholdVectors {
		r, err := collective.NodeAllReduce(sys, 0, bytes)
		if err != nil {
			return 0, err
		}
		r.Schedule.RecordObservability(rec)
		return r.Cycles, nil
	}
	return NodeAllReduceAnalyticCycles(bytes), nil
}

// HierarchicalAllReduceAnalyticCycles is the closed form of the three-stage
// hierarchical schedule over an all-to-all system of `nodes` nodes: stage 1
// reduce-scatter inside each node (shard V/8 per dedicated link), stage 2
// same-shard all-to-all among nodes (per node pair, 8 owner flows of V/8
// over the pair's c parallel cables), stage 3 the gather mirror of stage 1.
// Like the node form, it is exact for the regular schedule and is validated
// against the explicit scheduler in tests at small sizes.
func HierarchicalAllReduceAnalyticCycles(nodes int, bytes int64) int64 {
	if nodes <= 1 {
		return NodeAllReduceAnalyticCycles(bytes)
	}
	v := (bytes + 319) / 320
	shard := (v + topo.TSPsPerNode - 1) / topo.TSPsPerNode
	if shard < 1 {
		shard = 1
	}
	cables := int64(topo.GlobalPortsPerNode / (nodes - 1))
	if cables < 1 {
		cables = 1
	}
	perPair := (8*shard + cables - 1) / cables
	phase := func(n, hops int64) int64 {
		return (n-1)*int64(route.SlotCycles) + hops*route.HopCycles
	}
	// Stage 2 owners sit on arbitrary TSPs of their nodes, so the
	// inter-node route is up to 3 hops (local, global, local).
	return 2*phase(shard, 1) + phase(perPair, 3) + 3*collective.VAddCyclesPerVector
}

// NodeAllReduceAnalyticCycles is the closed form of the schedule
// collective.NodeAllReduce builds — the schedule is perfectly regular, so
// the formula is exact: each phase streams the shard back-to-back on every
// dedicated directed link ((shardVecs−1) slots after the first departure,
// plus one hop of flight), phase 2's first vector departs at phase 1's
// last arrival, and the tail is the final fly-by write.
func NodeAllReduceAnalyticCycles(bytes int64) int64 {
	shardBytes := (bytes + topo.TSPsPerNode - 1) / topo.TSPsPerNode
	shardVecs := (shardBytes + 319) / 320
	if shardVecs < 1 {
		shardVecs = 1
	}
	phase := (shardVecs-1)*route.SlotCycles + route.HopCycles
	return 2*phase + collective.VAddCyclesPerVector
}
