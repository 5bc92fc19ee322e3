package workloads

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/tsp"
)

// Functional transformer encoder layer on one simulated chip (§5.4 made
// concrete at small scale): single-head scaled-dot-product attention
// followed by a two-layer ReLU FFN with residual connections, compiled to
// the reproduction ISA by a static scheduler and verified against a host
// reference. Layer norms are omitted (the VXM kernels for them are
// exercised separately); the point here is that attention's data-dependent
// dataflow — scores computed from activations, softmax, weighted sums —
// still compiles to a fully static instruction schedule, because the
// *shapes* are static even though the values are not.

// EncoderParams holds the layer's weights.
type EncoderParams struct {
	// Seq is the token count (≤8 for the demo); Hidden the embedding
	// width (≤16); FFN the inner width (≤64).
	Seq, Hidden, FFN int
	Wq, Wk, Wv       [][]float32 // [Hidden][Hidden]
	W1               [][]float32 // [Hidden][FFN]
	W2               [][]float32 // [FFN][Hidden]
}

// Validate checks dimensions: the demo range, and the rows and columns of
// every weight matrix.
func (p *EncoderParams) Validate() error {
	if p.Seq < 1 || p.Seq > 8 || p.Hidden < 1 || p.Hidden > 16 || p.FFN < 1 || p.FFN > 64 {
		return fmt.Errorf("workloads: encoder dims out of demo range")
	}
	for _, w := range []struct {
		name       string
		m          [][]float32
		rows, cols int
	}{
		{"Wq", p.Wq, p.Hidden, p.Hidden},
		{"Wk", p.Wk, p.Hidden, p.Hidden},
		{"Wv", p.Wv, p.Hidden, p.Hidden},
		{"W1", p.W1, p.Hidden, p.FFN},
		{"W2", p.W2, p.FFN, p.Hidden},
	} {
		if err := checkMatrix(w.name, w.m, w.rows, w.cols); err != nil {
			return err
		}
	}
	return nil
}

// checkMatrix fails unless m is rows×cols.
func checkMatrix(name string, m [][]float32, rows, cols int) error {
	if len(m) != rows {
		return fmt.Errorf("workloads: %s has %d rows, want %d", name, len(m), rows)
	}
	for r, row := range m {
		if len(row) != cols {
			return fmt.Errorf("workloads: %s row %d has %d entries, want %d", name, r, len(row), cols)
		}
	}
	return nil
}

// Stream register allocation for the encoder program.
const (
	encTok    = 0  // 0..7: token embeddings x_i
	encQ      = 8  // 8..15: q_i
	encK      = 16 // 16..23: k_i
	encV      = 24 // 24..31: v_i
	encScore  = 32 // 32..39: score rows
	encTmp    = 40 // scratch
	encTmp2   = 41
	encTmp3   = 42
	encAccum  = 43
	encOneHot = 44 // 44..51: one-hot lane masks (preloaded)
	encMask   = 52 // active-lane mask over Seq lanes (preloaded)
	encOut    = 56 // 56..63: final outputs per token
)

// encBuilder extends isa.Builder with VXM/MXM helpers that chain cursor
// dependencies implicitly (everything on two units, strictly ordered).
type encBuilder struct {
	isa.Builder
	t int64 // running dependency time
}

func (e *encBuilder) vxm(op isa.Op, a, bb, c uint16, imm int32) {
	e.t = e.After(isa.VXM, e.t, isa.Instruction{Op: op, A: a, B: bb, C: c, Imm: imm})
}

func (e *encBuilder) mxm(op isa.Op, a, bb uint16, imm int32) {
	e.t = e.After(isa.MXM, e.t, isa.Instruction{Op: op, A: a, B: bb, Imm: imm})
}

// laneSumSplat emits ops computing splat(Σ lanes[0..n) of src) into dst,
// using tmp as scratch.
func (e *encBuilder) laneSumSplat(src, dst, tmp uint16, n int) {
	e.vxm(isa.VSplat, src, 0, dst, 0)
	for l := 1; l < n; l++ {
		e.vxm(isa.VSplat, src, 0, tmp, int32(l))
		e.vxm(isa.VAdd, dst, tmp, dst, 0)
	}
}

// BuildEncoderProgram compiles the layer for the given dimensions. Weights
// are preloaded into chip streams by RunEncoderOnChip; the program loads
// them into the MXM as needed.
func BuildEncoderProgram(p *EncoderParams) (*isa.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &encBuilder{}
	s, h := p.Seq, p.Hidden

	// Weight streams are preloaded at fixed offsets well above the
	// working set; see RunEncoderOnChip. We cannot exceed 64 streams, so
	// weights are staged through memory instead: RunEncoderOnChip writes
	// them to SRAM and the program reads them as needed.
	loadWeightsFromMem := func(slice int, rows int) {
		for r := 0; r < rows; r++ {
			// MEM read into scratch, then LoadWeights from it.
			e.t = e.After(isa.MEM, e.t, isa.Instruction{
				Op: isa.Read, A: uint16(slice), B: 0, C: uint16(r), Imm: encTmp,
			})
			e.mxm(isa.LoadWeights, encTmp, uint16(r), 0)
		}
	}

	// Projections: q_i = x_i · Wq, etc.
	project := func(slice int, dstBase uint16) {
		loadWeightsFromMem(slice, h)
		for i := 0; i < s; i++ {
			e.mxm(isa.MatMul, uint16(encTok+i), dstBase+uint16(i), int32(h))
		}
	}
	project(encWqSlice, encQ)
	project(encWkSlice, encK)
	project(encWvSlice, encV)

	// Attention scores: score_i[j] = (q_i · k_j) / sqrt(h), assembled
	// lane by lane with one-hot masks.
	invSqrtH := int32(math.Float32bits(float32(1 / math.Sqrt(float64(h)))))
	for i := 0; i < s; i++ {
		row := uint16(encScore + i)
		first := true
		for j := 0; j < s; j++ {
			e.vxm(isa.VMul, uint16(encQ+i), uint16(encK+j), encTmp2, 0)
			e.laneSumSplat(encTmp2, encAccum, encTmp3, h)
			e.vxm(isa.VMul, encAccum, uint16(encOneHot+j), encAccum, 0)
			if first {
				e.vxm(isa.VCopy, encAccum, 0, row, 0)
				first = false
			} else {
				e.vxm(isa.VAdd, row, encAccum, row, 0)
			}
		}
		e.vxm(isa.VScale, row, 0, row, invSqrtH)

		// Numerically stable softmax over the s active lanes.
		e.vxm(isa.VSplat, row, 0, encAccum, 0)
		for j := 1; j < s; j++ {
			e.vxm(isa.VSplat, row, 0, encTmp3, int32(j))
			e.vxm(isa.VMax, encAccum, encTmp3, encAccum, 0)
		}
		e.vxm(isa.VSub, row, encAccum, row, 0)
		e.vxm(isa.VExp, row, 0, row, 0)
		e.vxm(isa.VMul, row, encMask, row, 0)
		e.laneSumSplat(row, encAccum, encTmp3, s)
		e.vxm(isa.VRsqrt, encAccum, 0, encAccum, 0)
		e.vxm(isa.VMul, encAccum, encAccum, encAccum, 0) // 1/sum
		e.vxm(isa.VMul, row, encAccum, row, 0)
	}

	// Attention output + residual: attn_i = Σ_j softmax_i[j]·v_j + x_i.
	for i := 0; i < s; i++ {
		out := uint16(encOut + i)
		e.vxm(isa.VCopy, uint16(encTok+i), 0, out, 0)
		for j := 0; j < s; j++ {
			e.vxm(isa.VSplat, uint16(encScore+i), 0, encTmp2, int32(j))
			e.vxm(isa.VMul, encTmp2, uint16(encV+j), encTmp2, 0)
			e.vxm(isa.VAdd, out, encTmp2, out, 0)
		}
	}

	// FFN with residual: out_i += W2ᵀ·relu(W1ᵀ·attn_i).
	loadWeightsFromMem(encW1Slice, h)
	for i := 0; i < s; i++ {
		e.mxm(isa.MatMul, uint16(encOut+i), uint16(encQ+i), int32(h)) // reuse q slot
		e.vxm(isa.VRelu, uint16(encQ+i), 0, uint16(encQ+i), 0)
	}
	loadWeightsFromMem(encW2Slice, p.FFN)
	for i := 0; i < s; i++ {
		e.mxm(isa.MatMul, uint16(encQ+i), encTmp2, int32(p.FFN))
		e.vxm(isa.VAdd, uint16(encOut+i), encTmp2, uint16(encOut+i), 0)
	}

	e.After(isa.ICU, e.t, isa.Instruction{Op: isa.Halt})
	return e.Program(), nil
}

// Memory slices staging the weight matrices.
const (
	encWqSlice = 10
	encWkSlice = 11
	encWvSlice = 12
	encW1Slice = 13
	encW2Slice = 14
)

// RunEncoderOnChip executes the layer for token embeddings x ([Seq][Hidden])
// and returns the per-token outputs ([Seq][Hidden]) plus the finish cycle.
func RunEncoderOnChip(p *EncoderParams, x [][]float32) ([][]float32, int64, error) {
	prog, err := BuildEncoderProgram(p)
	if err != nil {
		return nil, 0, err
	}
	if err := checkMatrix("tokens", x, p.Seq, p.Hidden); err != nil {
		return nil, 0, err
	}
	chip := tsp.New(0, prog, nil)

	// Stage weights in SRAM (row r of slice S at offset r).
	stage := func(slice int, rows [][]float32) {
		for r, row := range rows {
			v := tsp.VectorOf(row)
			chip.Mem.Write(memAddrAt(slice, r), v[:])
		}
	}
	stage(encWqSlice, p.Wq)
	stage(encWkSlice, p.Wk)
	stage(encWvSlice, p.Wv)
	stage(encW1Slice, p.W1)
	stage(encW2Slice, p.W2)

	// Tokens, one-hot masks, active mask.
	for i := 0; i < p.Seq; i++ {
		chip.SetStream(encTok+i, tsp.VectorOf(x[i]))
		oneHot := make([]float32, p.Seq)
		oneHot[i] = 1
		chip.SetStream(encOneHot+i, tsp.VectorOf(oneHot))
	}
	mask := make([]float32, p.Seq)
	for i := range mask {
		mask[i] = 1
	}
	chip.SetStream(encMask, tsp.VectorOf(mask))

	finish, fault := chip.Run()
	if fault != nil {
		return nil, finish, fault
	}
	out := make([][]float32, p.Seq)
	for i := 0; i < p.Seq; i++ {
		f := chip.StreamFloats(encOut + i)
		out[i] = append([]float32(nil), f[:p.Hidden]...)
	}
	return out, finish, nil
}

// memAddrAt builds the staging address for weight row r of a slice.
func memAddrAt(slice, r int) mem.Addr {
	return mem.Addr{Slice: slice, Offset: r}
}
