package compiler

import (
	"fmt"

	"repro/internal/graph"
)

// BERT encoder modeling (§5.4, Figs 17, 18, 20).
//
// Per-layer cycle counts are built from the chip rate model: the six GEMMs
// of an encoder layer occupy the MXM (MatmulCycles), and the softmax /
// layer-norm / activation element work occupies the VXM. The TSP chains
// VXM ALUs, so a multi-pass pointwise pipeline retires several logical ops
// per vector per pass.

// BERTConfig sizes an encoder stack.
type BERTConfig struct {
	Name   string
	Layers int
	Hidden int
	Heads  int
	// Seq is the sequence length (384 for SQuAD v1.1).
	Seq int
	// Dtype is INT8 for quantized inference.
	Dtype Dtype
}

// BERTBase returns the 12-layer, 768-hidden configuration.
func BERTBase() BERTConfig {
	return BERTConfig{Name: "BERT-Base", Layers: 12, Hidden: 768, Heads: 12, Seq: 384, Dtype: INT8}
}

// BERTLarge returns the 24-layer, 1024-hidden configuration.
func BERTLarge() BERTConfig {
	return BERTConfig{Name: "BERT-Large", Layers: 24, Hidden: 1024, Heads: 16, Seq: 384, Dtype: INT8}
}

// WithLayers returns a copy with a different encoder count (Fig 18 scales
// 6/24/48/96 encoders).
func (c BERTConfig) WithLayers(n int) BERTConfig {
	c.Layers = n
	c.Name = fmt.Sprintf("BERT-%dL", n)
	return c
}

// VXMChainFactor is how many logical pointwise passes the chained VXM ALUs
// retire per vector pass.
const VXMChainFactor = 3

// LayerMXMCycles returns one encoder layer's matrix-unit occupancy: QKV
// projections, attention scores and context per head, output projection,
// and the two FFN GEMMs.
func (c BERTConfig) LayerMXMCycles() int64 {
	s, h := c.Seq, c.Hidden
	dh := h / c.Heads
	var total int64
	total += 3 * MatmulCycles(s, h, h, c.Dtype)               // Q, K, V
	total += int64(c.Heads) * MatmulCycles(s, s, dh, c.Dtype) // scores
	total += int64(c.Heads) * MatmulCycles(s, dh, s, c.Dtype) // context
	total += MatmulCycles(s, h, h, c.Dtype)                   // output proj
	total += MatmulCycles(s, 4*h, h, c.Dtype)                 // FFN up
	total += MatmulCycles(s, h, 4*h, c.Dtype)                 // FFN down
	return total
}

// LayerVXMCycles returns one layer's vector-unit occupancy: softmax over
// the attention scores, two layer-norms, and the FFN activation, each a
// few pointwise passes over the data at 320 lanes/vector.
func (c BERTConfig) LayerVXMCycles() int64 {
	s, h := c.Seq, c.Hidden
	lanes := int64(320)
	vec := func(elems int64) int64 { return (elems + lanes - 1) / lanes }
	var passes int64
	passes += 5 * vec(int64(c.Heads)*int64(s)*int64(s)) // softmax: max, sub, exp, sum, div
	passes += 8 * vec(int64(s)*int64(h)) * 2            // two layer-norms
	passes += 2 * vec(int64(s)*4*int64(h))              // GELU
	return passes / VXMChainFactor
}

// LayerCycles returns one layer's total occupancy. MXM and VXM phases
// partially overlap (the VXM consumes MXM output streams); the exposed
// time is the max plus a fraction of the smaller phase.
func (c BERTConfig) LayerCycles() int64 {
	mxm, vxm := c.LayerMXMCycles(), c.LayerVXMCycles()
	hi, lo := mxm, vxm
	if vxm > mxm {
		hi, lo = vxm, mxm
	}
	return hi + lo/2
}

// LayerOps returns one layer's arithmetic operation count (MACs×2), for
// realized-TOPs reporting.
func (c BERTConfig) LayerOps() int64 {
	s, h := int64(c.Seq), int64(c.Hidden)
	return 24*s*h*h + 4*s*s*h
}

// TotalOps returns the whole stack's operation count.
func (c BERTConfig) TotalOps() int64 { return int64(c.Layers) * c.LayerOps() }

// ActivationBytes is the inter-layer activation tensor [Seq×Hidden].
// Activations travel at FP16 width even in INT8 deployments: weights are
// quantized, but inter-layer activations keep accumulator-derived
// precision.
func (c BERTConfig) ActivationBytes() int64 {
	return int64(c.Seq) * int64(c.Hidden) * 2
}

// Partition assigns encoder layers to devices (pipelined model
// parallelism).
type Partition struct {
	Config  BERTConfig
	Devices int
	// MovementAware is Fig 20's "optimized" compiler: it balances FLOPs
	// *and* minimizes cross-device tensor traffic by assigning each
	// device a contiguous block of layers, so only Devices−1 activation
	// tensors ever cross the fabric. The "unoptimized" compiler balances
	// only FLOPs; its round-robin layer placement is perfectly
	// FLOP-balanced but makes *every* layer boundary a cross-device
	// transfer.
	MovementAware bool
	// DeviceOf[layer] is the device executing that layer.
	DeviceOf []int
}

// PartitionBERT splits the stack across devices.
func PartitionBERT(c BERTConfig, devices int, movementAware bool) (Partition, error) {
	if devices < 1 {
		return Partition{}, fmt.Errorf("compiler: need >= 1 device")
	}
	if devices > c.Layers {
		return Partition{}, fmt.Errorf("compiler: %d devices exceed %d layers", devices, c.Layers)
	}
	p := Partition{Config: c, Devices: devices, MovementAware: movementAware,
		DeviceOf: make([]int, c.Layers)}
	if movementAware {
		// Contiguous blocks, as even as possible.
		base, extra := c.Layers/devices, c.Layers%devices
		layer := 0
		for d := 0; d < devices; d++ {
			span := base
			if d < extra {
				span++
			}
			for i := 0; i < span; i++ {
				p.DeviceOf[layer] = d
				layer++
			}
		}
		return p, nil
	}
	for l := 0; l < c.Layers; l++ {
		p.DeviceOf[l] = l % devices
	}
	return p, nil
}

// Crossings counts the layer boundaries whose activation must cross
// devices.
func (p Partition) Crossings() int {
	n := 0
	for l := 1; l < len(p.DeviceOf); l++ {
		if p.DeviceOf[l] != p.DeviceOf[l-1] {
			n++
		}
	}
	return n
}

// BuildGraph lowers the partition into a DAG: one op per encoder layer on
// its assigned device, activations flowing layer to layer.
func (p Partition) BuildGraph() *graph.Graph {
	g := graph.New()
	c := p.Config
	cur := g.AddInput("embeddings", c.ActivationBytes())
	for l := 0; l < c.Layers; l++ {
		_, out := g.AddOp(
			fmt.Sprintf("layer%d", l),
			p.DeviceOf[l], c.LayerCycles(),
			[]graph.TensorID{cur}, c.ActivationBytes(),
		)
		cur = out
	}
	return g
}
