// Package tsm is the public API of the software-defined Tensor Streaming
// Multiprocessor reproduction: build a system (topology + fabric), compile
// communication or whole computation graphs onto it with the
// software-scheduled networking (SSN) compiler, run collectives, execute
// functional programs on simulated chips, and regenerate the paper's
// evaluation figures.
//
// Quick start:
//
//	sys, _ := tsm.NewSystem(tsm.Config{Nodes: 1})       // one 8-TSP node
//	res, _ := sys.AllReduce(1 << 20)                    // scheduled collective
//	fmt.Println(res.BusBandwidthGBps())
//
// The heavy lifting lives in the internal packages; this package stitches
// them together behind a stable surface.
package tsm

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// Config sizes a system.
type Config struct {
	// Nodes is the number of 8-TSP nodes: 1..33 build the all-to-all
	// regime, whole-rack multiples of 9 build the rack Dragonfly, up to
	// 1305 nodes (145 racks, 10,440 TSPs).
	Nodes int
	// Recorder records the system's schedules and cluster runs.
	Recorder *Recorder
}

// System is a constructed multi-TSP machine.
type System struct {
	topo *topo.System
	rec  *obs.Recorder
}

// NewSystem constructs and validates the topology.
func NewSystem(cfg Config) (*System, error) {
	t, err := topo.New(topo.Config{Nodes: cfg.Nodes})
	if err != nil {
		return nil, err
	}
	return &System{topo: t, rec: cfg.Recorder}, nil
}

// Topology exposes the underlying topology for advanced use.
func (s *System) Topology() *topo.System { return s.topo }

// NumTSPs returns the endpoint count.
func (s *System) NumTSPs() int { return s.topo.NumTSPs() }

// GlobalMemoryBytes returns the system's aggregate SRAM capacity: 220 MiB
// per TSP, limited only by the network's scale.
func (s *System) GlobalMemoryBytes() int64 {
	return int64(s.NumTSPs()) * 220 * 1024 * 1024
}

// Diameter returns the TSP-level network diameter (measured by BFS) and
// the paper's packaging-level hop accounting (3 at ≤264 TSPs, 5 at rack
// scale).
func (s *System) Diameter() (measured, packaging int) {
	return s.topo.Diameter(), s.topo.PackagingDiameter()
}

// Transfer describes one tensor movement for the SSN compiler.
type Transfer = core.Transfer

// TransferID identifies a transfer within one task list.
type TransferID = core.TransferID

// CommSchedule is a compiled, verified communication schedule.
type CommSchedule = core.CommSchedule

// ScheduleTransfers compiles a communication task list: compile-time
// routing, deterministic load balancing, and conflict-free link slotting
// (§4). The returned schedule has already passed verification.
func (s *System) ScheduleTransfers(transfers []Transfer) (*CommSchedule, error) {
	cs, err := core.ScheduleTransfers(s.topo, transfers)
	if err != nil {
		return nil, err
	}
	cs.RecordObservability(s.rec)
	if err := cs.Verify(); err != nil {
		return nil, fmt.Errorf("tsm: schedule failed verification: %w", err)
	}
	return cs, nil
}

// Graph re-exports the static computation DAG builder.
type Graph = graph.Graph

// TensorID and OpID identify tensors and operations within a Graph.
type TensorID = graph.TensorID
type OpID = graph.OpID

// NewGraph returns an empty computation graph.
func NewGraph() *Graph { return graph.New() }

// Program is a single-chip machine-code binary: one instruction stream per
// functional unit.
type Program = isa.Program

// CompileGraph schedules a whole computation graph onto the system:
// per-device op timing plus SSN-scheduled tensor movement. deviceToTSP
// maps logical devices to physical TSP ids (identity when nil).
func (s *System) CompileGraph(g *Graph, deviceToTSP func(int) int) (*core.OpSchedule, error) {
	m := deviceToTSP
	if m == nil {
		m = func(d int) int { return d }
	}
	toTSP := func(d int) topo.TSPID { return topo.TSPID(m(d)) }
	os, err := core.CompileGraph(s.topo, g, toTSP)
	if err != nil {
		return nil, err
	}
	os.RecordObservability(s.rec, g, toTSP)
	return os, nil
}

// AllReduce schedules an All-Reduce of a bytes-sized tensor: 8-way within
// one node, or the hierarchical three-stage variant across an all-to-all
// system.
func (s *System) AllReduce(bytes int64) (collective.Result, error) {
	if s.topo.NumNodes() == 1 {
		return s.recorded(collective.NodeAllReduce(s.topo, 0, bytes))
	}
	return s.recorded(collective.HierarchicalAllReduce(s.topo, bytes))
}

// Broadcast schedules a one-to-all broadcast within the root's node.
func (s *System) Broadcast(root int, bytes int64) (collective.Result, error) {
	return s.recorded(collective.Broadcast(s.topo, topo.TSPID(root), bytes))
}

// recorded records a collective's schedule into the system's recorder.
func (s *System) recorded(r collective.Result, err error) (collective.Result, error) {
	if err == nil {
		r.Schedule.RecordObservability(s.rec)
	}
	return r, err
}

// Cluster is the functional multi-chip executor. Run picks a sequential
// min-heap executor or a component executor, and SetWorkers(n) is its one
// setting: how many goroutines the component executor spreads the work
// over. Both produce byte-identical results — finish cycles, memories,
// counters, exported dumps: on a clean fabric, chip groups whose programs
// never send to each other run on their own heaps in parallel; every
// other run (recorder, fault plan, bit error rate, checkpoint or series
// cadence) runs on one heap.
type Cluster = runtime.Cluster

// Cluster builds a functional multi-chip executor running one program
// binary per TSP (programs beyond the slice, or nil entries, idle). It
// starts at one worker; configure it with SetWorkers.
func (s *System) Cluster(programs []*isa.Program) (*Cluster, error) {
	cl, err := runtime.New(s.topo, programs)
	if err != nil {
		return nil, err
	}
	cl.SetRecorder(s.rec)
	return cl, nil
}

// Assemble compiles assembler text to a single-chip program binary.
func Assemble(src string) (*isa.Program, error) { return isa.Assemble(src) }

// BandwidthProfilePoint is one sample of the Fig 2 curve.
type BandwidthProfilePoint = topo.ProfilePoint

// BandwidthProfile returns the paper's Fig 2 global-bandwidth-per-TSP
// curve over every deployable system size.
func BandwidthProfile() []BandwidthProfilePoint { return topo.BandwidthProfile() }

// BERTConfig re-exports the encoder-stack configuration.
type BERTConfig = compiler.BERTConfig

// BERTBase and BERTLarge return the standard configurations.
func BERTBase() BERTConfig  { return compiler.BERTBase() }
func BERTLarge() BERTConfig { return compiler.BERTLarge() }

// DeployBERT compiles a BERT stack onto n TSPs of this system with the
// movement-aware (optimized) or FLOP-balanced (unoptimized) partitioner.
// It records nothing.
func DeployBERT(cfg BERTConfig, devices int, movementAware bool) (*workloads.BERTDeployment, error) {
	return workloads.DeployBERT(cfg, devices, movementAware, nil)
}

// MatmulSplit re-exports the distributed-matmul decomposition planner.
type MatmulSplit = compiler.MatmulSplit

// Cholesky runs a functional, statically scheduled Cholesky factorization
// of the SPD matrix a (≤80×80) on one simulated chip, returning L and the
// chip's deterministic finish cycle. It records nothing.
func Cholesky(a [][]float32) ([][]float32, int64, error) {
	return workloads.RunCholeskyOnChip(a, nil)
}

// EncoderParams re-exports the functional transformer-encoder weights.
type EncoderParams = workloads.EncoderParams

// Encoder runs a simplified transformer encoder layer (single-head
// attention with softmax, ReLU FFN, residuals) on one simulated chip,
// compiled to the reproduction ISA; outputs are numerically verified
// against host references in the test suite.
func Encoder(p *EncoderParams, tokens [][]float32) ([][]float32, int64, error) {
	return workloads.RunEncoderOnChip(p, tokens)
}

// FunctionalAllReduce runs a real 8-way All-Reduce on simulated chips:
// inputs[i] is chip i's vector (≤80 float32 lanes); every chip ends with
// the elementwise global sum, computed by scheduled sends, receives, and
// VXM adds with no synchronization primitives anywhere.
func FunctionalAllReduce(inputs [][]float32) ([][]float32, int64, error) {
	return workloads.FunctionalAllReduce(inputs)
}

// Recorder is the deterministic observability registry and trace sink of
// internal/obs. Hand a fresh one to the system through Config.Recorder;
// the schedules it compiles and the clusters it builds record into it,
// then write the dumps:
//
//	rec := tsm.NewRecorder()
//	sys, _ := tsm.NewSystem(tsm.Config{Nodes: 1, Recorder: rec})
//	... schedule, build and run clusters ...
//	rec.WriteTraceFile("trace.json")   // Perfetto-loadable Chrome trace
//	rec.WriteMetricsFile("metrics.json")
//
// A system built without one records nothing; every instrumentation
// point is then a nil-safe no-op. The package-level functions (DeployBERT,
// Cholesky, Encoder, FunctionalAllReduce) record nothing. A recorder has
// one writer: record into it from one goroutine at a time. Its exports
// sort, so their bytes do not depend on the order it recorded in.
type Recorder = obs.Recorder

// NewRecorder returns an empty recorder for Config.Recorder.
func NewRecorder() *Recorder { return obs.New() }
