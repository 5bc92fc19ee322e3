// Reference byte-path vector kernels.
//
// This file retains, verbatim in structure, the pre-fast-path functional
// kernels: every operand is decoded with Vector.Floats, every result is
// eagerly re-encoded with VectorOf, and no state is cached between
// instructions. It exists as the oracle for the differential tests
// (lanes_diff_test.go): the lane-typed execute path must produce
// byte-identical stream registers for every opcode over arbitrary inputs,
// including NaN / Inf / denormal lane payloads. The arithmetic cases apply
// the same canonNaN the live kernels do — NaN-result payloads are an
// architectural constant, not a codegen accident (see canonNaN in tsp.go).
// It is compiled into the tests only, never a second production path —
// keep it dumb.
package tsp

import (
	"math"

	"repro/internal/isa"
)

// refVectorOp applies one VXM/MXM opcode the way the original byte path
// did and returns the destination vector. a and b are the (already
// resolved) source stream registers; weights backs LoadWeights/MatMul.
// ok=false marks an opcode outside the data-path set this oracle covers.
func refVectorOp(op isa.Op, a, b Vector, imm int32, weights *[WeightRows][FloatLanes]float32) (Vector, bool) {
	switch op {
	case isa.MatMul:
		rows := int(imm)
		if rows < 1 {
			rows = 1
		}
		if rows > WeightRows {
			rows = WeightRows
		}
		act := a.Floats()
		var out [FloatLanes]float32
		for r := 0; r < rows && r < FloatLanes; r++ {
			av := act[r]
			if av == 0 {
				continue
			}
			w := &weights[r]
			for j := range out {
				out[j] += float32(av * w[j])
			}
		}
		for j := range out {
			out[j] = canonNaN(out[j])
		}
		return VectorOf(out[:]), true

	case isa.VAdd, isa.VSub, isa.VMul:
		af := a.Floats()
		bf := b.Floats()
		var out [FloatLanes]float32
		for i := range out {
			switch op {
			case isa.VAdd:
				out[i] = canonNaN(af[i] + bf[i])
			case isa.VSub:
				out[i] = canonNaN(af[i] - bf[i])
			default:
				out[i] = canonNaN(af[i] * bf[i])
			}
		}
		return VectorOf(out[:]), true

	case isa.VRsqrt:
		af := a.Floats()
		var out [FloatLanes]float32
		for i := range out {
			if af[i] > 0 {
				out[i] = float32(1 / math.Sqrt(float64(af[i])))
			}
		}
		return VectorOf(out[:]), true

	case isa.VSplat:
		af := a.Floats()
		lane := int(imm)
		if lane < 0 || lane >= FloatLanes {
			lane = 0
		}
		var out [FloatLanes]float32
		for i := range out {
			out[i] = af[lane]
		}
		return VectorOf(out[:]), true

	case isa.VCopy:
		return a, true

	case isa.VMax:
		af := a.Floats()
		bf := b.Floats()
		var out [FloatLanes]float32
		for i := range out {
			out[i] = af[i]
			if bf[i] > out[i] {
				out[i] = bf[i]
			}
		}
		return VectorOf(out[:]), true

	case isa.VRelu:
		af := a.Floats()
		var out [FloatLanes]float32
		for i := range out {
			if af[i] > 0 {
				out[i] = af[i]
			}
		}
		return VectorOf(out[:]), true

	case isa.VExp:
		af := a.Floats()
		var out [FloatLanes]float32
		for i := range out {
			out[i] = float32(math.Exp(float64(af[i])))
		}
		return VectorOf(out[:]), true

	case isa.VScale:
		af := a.Floats()
		k := math.Float32frombits(uint32(imm))
		var out [FloatLanes]float32
		for i := range out {
			out[i] = canonNaN(af[i] * k)
		}
		return VectorOf(out[:]), true
	}
	return Vector{}, false
}

// refLoadWeights decodes a weight row exactly as the original byte path
// did (an eager Floats call on the source register).
func refLoadWeights(a Vector) [FloatLanes]float32 { return a.Floats() }
