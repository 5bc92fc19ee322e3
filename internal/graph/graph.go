// Package graph represents the static computation DAG the SSN compiler
// schedules (paper §3, §4.1): every operation has a fixed device
// assignment and a statically known duration in cycles, every tensor a
// statically known size, and every dependency is explicit. There is no
// control flow — ML inference graphs are straight-line — which is what
// makes compile-time scheduling of *all* compute and communication
// possible.
package graph

import (
	"fmt"

	"repro/internal/c2c"
)

// OpID identifies an operation; TensorID a tensor.
type OpID int
type TensorID int

// Tensor is one value flowing through the graph.
type Tensor struct {
	ID    TensorID
	Name  string
	Bytes int64
	// Producer is the op that writes the tensor (-1 for graph inputs).
	Producer OpID
}

// Vectors returns the tensor's size in 320-byte network flits.
func (t Tensor) Vectors() int {
	return int((t.Bytes + c2c.VectorBytes - 1) / c2c.VectorBytes)
}

// Op is one statically scheduled operation.
type Op struct {
	ID   OpID
	Name string
	// Device is the TSP executing the op.
	Device int
	// Cycles is the op's deterministic duration.
	Cycles int64
	// Inputs are consumed tensors; Output (if >= 0) is produced.
	Inputs []TensorID
	Output TensorID
}

// Graph is a static computation DAG.
type Graph struct {
	ops     []Op
	tensors []Tensor
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddInput declares a graph input tensor (no producer).
func (g *Graph) AddInput(name string, bytes int64) TensorID {
	id := TensorID(len(g.tensors))
	g.tensors = append(g.tensors, Tensor{ID: id, Name: name, Bytes: bytes, Producer: -1})
	return id
}

// AddOp appends an operation producing a new tensor of the given size
// (bytes may be 0 for pure-effect ops; outBytes < 0 means no output).
func (g *Graph) AddOp(name string, device int, cycles int64, inputs []TensorID, outBytes int64) (OpID, TensorID) {
	if device < 0 {
		panic("graph: negative device")
	}
	if cycles < 0 {
		panic("graph: negative duration")
	}
	op := Op{
		ID:     OpID(len(g.ops)),
		Name:   name,
		Device: device,
		Cycles: cycles,
		Inputs: append([]TensorID(nil), inputs...),
		Output: -1,
	}
	for _, in := range inputs {
		if int(in) < 0 || int(in) >= len(g.tensors) {
			panic(fmt.Sprintf("graph: op %q consumes unknown tensor %d", name, in))
		}
	}
	if outBytes >= 0 {
		tid := TensorID(len(g.tensors))
		g.tensors = append(g.tensors, Tensor{ID: tid, Name: name + ".out", Bytes: outBytes, Producer: op.ID})
		op.Output = tid
	}
	g.ops = append(g.ops, op)
	return op.ID, op.Output
}

// Ops returns all operations in insertion order (which is a valid
// topological order: AddOp can only consume already-declared tensors, so
// cycles are unrepresentable).
func (g *Graph) Ops() []Op { return g.ops }

// Op returns one operation.
func (g *Graph) Op(id OpID) Op { return g.ops[id] }

// Tensor returns one tensor.
func (g *Graph) Tensor(id TensorID) Tensor { return g.tensors[id] }

// NumOps returns the operation count.
func (g *Graph) NumOps() int { return len(g.ops) }

// Devices returns the number of distinct devices referenced (max id + 1).
func (g *Graph) Devices() int {
	max := -1
	for _, op := range g.ops {
		if op.Device > max {
			max = op.Device
		}
	}
	return max + 1
}

// CommEdge is a producer→consumer edge that crosses devices and therefore
// becomes network traffic.
type CommEdge struct {
	Tensor   TensorID
	Producer OpID // -1 when the tensor is a graph input resident on Src
	Consumer OpID
	Src, Dst int
}

// CommEdges extracts every cross-device edge. Graph inputs are considered
// resident on the device of their first consumer and generate no traffic.
func (g *Graph) CommEdges() []CommEdge {
	var edges []CommEdge
	for _, op := range g.ops {
		for _, in := range op.Inputs {
			t := g.tensors[in]
			if t.Producer < 0 {
				continue
			}
			src := g.ops[t.Producer].Device
			if src != op.Device {
				edges = append(edges, CommEdge{
					Tensor:   in,
					Producer: t.Producer,
					Consumer: op.ID,
					Src:      src,
					Dst:      op.Device,
				})
			}
		}
	}
	return edges
}
