package workloads

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/topo"
)

// Memory-capacity planning (paper abstract + intro): the global address
// space grows 220 MiB per TSP, "with the maximum capacity limited only by
// the network's scale", and large NLP models must *fit* into the
// distributed SRAM before any computation can be load-balanced.

// ModelFit describes how a parameter set maps onto the global memory.
type ModelFit struct {
	Params        int64
	BytesPerParam int64
	// TSPsNeeded is the minimum endpoint count whose aggregate SRAM
	// holds the parameters plus the working-set overhead fraction.
	TSPsNeeded int
	// Nodes is TSPsNeeded rounded up to whole nodes.
	Nodes int
	// Deployable reports whether the model fits the maximum system.
	Deployable bool
	// SystemFraction is TSPsNeeded / MaxTSPs.
	SystemFraction float64
}

// workingSetOverhead reserves SRAM for activations, instruction text, and
// collective staging alongside the parameters.
const workingSetOverhead = 0.25

// FitModel computes the capacity plan for a parameter count at the given
// precision (bytes per parameter: 1 for int8, 2 for fp16).
func FitModel(params int64, bytesPerParam int64) (ModelFit, error) {
	if params <= 0 || bytesPerParam <= 0 {
		return ModelFit{}, fmt.Errorf("workloads: invalid model size")
	}
	need := float64(params*bytesPerParam) * (1 + workingSetOverhead)
	perTSP := float64(mem.ChipBytes)
	tsps := int(need/perTSP) + 1
	nodes := (tsps + topo.TSPsPerNode - 1) / topo.TSPsPerNode
	return ModelFit{
		Params:         params,
		BytesPerParam:  bytesPerParam,
		TSPsNeeded:     tsps,
		Nodes:          nodes,
		Deployable:     tsps <= topo.MaxTSPs,
		SystemFraction: float64(tsps) / float64(topo.MaxTSPs),
	}, nil
}
