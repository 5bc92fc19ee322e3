package workloads

import (
	"repro/internal/collective"
	"repro/internal/compiler"
	"repro/internal/route"
	"repro/internal/topo"
)

// Fig 14: the [800×32576]×[32576×8192] distributed matmul, decomposed into
// 8 column-wise splits and R=1..13 row-wise splits per group (8·R TSPs),
// row-split groups clustered per node so reductions ride intra-node links.

// Fig14Point is one configuration of the Fig 14 sweep.
type Fig14Point struct {
	RowSplits int
	TSPs      int
	LatencyUS float64
	// TFlops is realized FP16 throughput across the machine.
	TFlops float64
	// Utilization is realized/peak for the TSPs used.
	Utilization float64
}

// fig14Dims are the paper's operand dimensions.
const (
	fig14M         = 800
	fig14K         = 32576
	fig14N         = 8192
	fig14ColSplits = 8
)

// Fig14 sweeps row splits 1..maxRowSplits (13 in the paper).
func Fig14(maxRowSplits int) ([]Fig14Point, error) {
	if maxRowSplits < 1 {
		maxRowSplits = 13
	}
	var pts []Fig14Point
	for r := 1; r <= maxRowSplits; r++ {
		p, err := fig14Config(r)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// fig14InterNodeLanes is the effective link-parallelism of the inter-node
// reduction leg when a group spans two nodes (R > 8): the direct parallel
// cables plus §4.3 non-minimal detours through neighbor nodes.
const fig14InterNodeLanes = 8

func fig14Config(rowSplits int) (Fig14Point, error) {
	split := compiler.MatmulSplit{
		M: fig14M, N: fig14N, K: fig14K,
		ColSplits: fig14ColSplits, RowSplits: rowSplits,
		Dtype: compiler.FP16,
	}
	if err := split.Validate(); err != nil {
		return Fig14Point{}, err
	}
	compute := split.ComputeCycles()
	partialVecs := int((split.PartialBytes() + 319) / 320)

	// Reduction within each group (§5.2): the partials stream out of the
	// MXM and are reduce-scattered + gathered to the group leader on the
	// node's dedicated links; a group spanning two nodes (R > 8) adds an
	// inter-node leg over the Dragonfly's direct and detour lanes. The
	// compiler overlaps the streamed reduction with compute (§4.1), so
	// the exposed time is the max of the two plus the pipeline tail.
	var reduce int64
	if rowSplits > 1 {
		members := rowSplits
		if members > topo.TSPsPerNode {
			members = topo.TSPsPerNode
		}
		reduce = collective.ReduceToLeaderCycles(members, partialVecs)
		if rowSplits > topo.TSPsPerNode {
			reduce += collective.InterNodeReduceCycles(partialVecs, fig14InterNodeLanes)
		}
	}
	makespan := compute
	if reduce > makespan {
		makespan = reduce
	}
	makespan += 2 * route.HopCycles // pipeline fill/drain tail

	seconds := float64(makespan) / compiler.TSPClockHz
	flops := 2 * float64(fig14M) * float64(fig14K) * float64(fig14N)
	devices := split.Devices()
	peak := compiler.PeakTFlops(compiler.FP16) * 1e12 * float64(devices)
	return Fig14Point{
		RowSplits:   rowSplits,
		TSPs:        devices,
		LatencyUS:   seconds * 1e6,
		TFlops:      flops / seconds / 1e12,
		Utilization: flops / seconds / peak,
	}, nil
}

// sizeNodes rounds a node requirement up to a constructible system size.
func sizeNodes(n int) int {
	if n < 1 {
		return 1
	}
	if n <= topo.MaxAllToAllNodes {
		return n
	}
	racks := (n + topo.NodesPerRack - 1) / topo.NodesPerRack
	return racks * topo.NodesPerRack
}

// Fig 15: large square matmuls [N×N]×[N×N] on clusters of 100/200/300
// TSPs using column-wise splits only (each TSP computes [N×N]×[N×⌈N/X⌉]),
// with weights streamed from the host over PCIe in row-major tile order.

// Fig15Point is one (cluster, N) sample.
type Fig15Point struct {
	TSPs int
	N    int
	// TFlops is realized cluster throughput.
	TFlops float64
	// PCIeBound reports whether the host link, not the MXM, set the pace.
	PCIeBound bool
	// SpeedupVsV100Cluster compares against the paper's [17] reference
	// (432 V100s, ≈2800 TFLOPs at N=650,000).
	SpeedupVsV100Cluster float64
}

// Fig15 evaluates the given cluster sizes across matrix sizes.
func Fig15(clusters []int, sizes []int) []Fig15Point {
	var pts []Fig15Point
	for _, x := range clusters {
		for _, n := range sizes {
			pts = append(pts, fig15Config(x, n))
		}
	}
	return pts
}

func fig15Config(tsps, n int) Fig15Point {
	nLocal := (n + tsps - 1) / tsps
	cycles := compiler.MatmulCycles(n, nLocal, n, compiler.FP16)
	seconds := float64(cycles) / compiler.TSPClockHz
	// PCIe feed check: row-major tile streaming demand must fit the host
	// link, else the transfer paces the compute.
	demand := compiler.WeightStreamDemandGBps(n, compiler.FP16, true)
	pcieBound := demand > compiler.PCIeGBps
	if pcieBound {
		seconds *= demand / compiler.PCIeGBps
	}
	flops := 2 * float64(n) * float64(n) * float64(nLocal) * float64(tsps)
	tf := flops / seconds / 1e12 / float64(tsps) * float64(tsps)
	return Fig15Point{
		TSPs:                 tsps,
		N:                    n,
		TFlops:               tf,
		PCIeBound:            pcieBound,
		SpeedupVsV100Cluster: tf / 2800.0,
	}
}
