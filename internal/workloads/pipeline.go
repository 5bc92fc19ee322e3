package workloads

import (
	"repro/internal/core"
	"repro/internal/topo"
)

// Pipelined model-parallel inference over a node's local links (§4.4): a
// stage per TSP arranged around the ring, activations flowing to the next
// neighbor. The triple-connected ring carries each boundary tensor over 3
// parallel cables; the fully connected wiring has 1 cable per pair but 6
// detour paths. This workload quantifies the §4.4 claim that the ring
// wiring "enables efficient nearest-neighbor communication ... for
// inference using pipelined model parallelism".

// PipelineSteadyState schedules all eight ring-neighbor boundary tensors
// *concurrently* — the steady state of a full pipeline, where every stage
// forwards activations each beat. This is where the triple-connected ring
// earns its keep: each boundary owns 3 dedicated cables, while the fully
// connected wiring has 1 cable per boundary and detours that collide with
// the other boundaries' traffic.
func PipelineSteadyState(wiring topo.Wiring, actBytes int64) (int64, error) {
	sys, err := topo.New(topo.Config{Nodes: 1, LocalWiring: wiring})
	if err != nil {
		return 0, err
	}
	vecs := int((actBytes + 319) / 320)
	var transfers []core.Transfer
	for i := 0; i < topo.TSPsPerNode; i++ {
		transfers = append(transfers, core.Transfer{
			ID:  core.TransferID(i),
			Src: topo.TSPID(i), Dst: topo.TSPID((i + 1) % topo.TSPsPerNode),
			Vectors: vecs,
		})
	}
	cs, err := core.ScheduleTransfers(sys, transfers)
	if err != nil {
		return 0, err
	}
	if err := cs.Verify(); err != nil {
		return 0, err
	}
	return cs.Makespan, nil
}
