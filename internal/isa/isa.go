// Package isa defines the instruction set of the reproduced TSP, covering
// the paper's Table 1 (the determinism/synchronization instructions) plus
// the compute, memory, and stream-movement operations the evaluation
// workloads need. It also provides a binary encoding and a small two-pass
// assembler, mirroring the paper's toolchain in which "the scheduled program
// is passed to the assembler to generate a machine-code binary".
//
// A TSP program is a *set of per-functional-unit instruction streams*, not a
// single sequential program: every functional slice has its own instruction
// queue, and the compiler has already resolved all timing, so there is no
// control flow — only straight-line instructions and NOP padding.
package isa

import "fmt"

// Op enumerates instruction opcodes.
type Op uint8

const (
	// Nop idles the unit for Imm cycles (schedule padding).
	Nop Op = iota

	// Synchronization instructions (paper Table 1).

	// Sync parks the issuing unit until a NOTIFY arrives (intra-chip).
	Sync
	// Notify broadcasts the restart signal to all parked units with a
	// fixed, known propagation latency.
	Notify
	// Deskew pauses issue until the local HAC next overflows (the next
	// epoch boundary).
	Deskew
	// RuntimeDeskew stalls for Imm ± δt cycles where δt = SAC − HAC,
	// re-aligning local program time with global time.
	RuntimeDeskew
	// Transmit sends a notification vector to the child TSP over C2C
	// link A (used by the initial program alignment handshake).
	Transmit

	// Chip-to-chip data movement.

	// Send transmits stream register B over C2C link A. The network is
	// scheduled, so there is no destination operand — the path is a
	// compile-time artifact.
	Send
	// Recv receives a vector from C2C link A into stream register B. It
	// issues at the statically scheduled arrival cycle.
	Recv

	// Memory instructions.

	// Read loads the vector at memory address (A=slice, B=bank, C=offset)
	// into stream register Imm.
	Read
	// Write stores stream register Imm to memory address (A,B,C).
	Write

	// Matrix unit instructions.

	// LoadWeights installs 320 bytes of weights from stream A into
	// weight-register row B of the MXM array.
	LoadWeights
	// MatMul streams activation vector from stream A through the array,
	// accumulating into stream B; Imm gives the number of accumulation
	// rows.
	MatMul

	// Vector unit instructions (320-lane SIMD on stream registers).

	// VAdd: dst C = src A + src B, elementwise.
	VAdd
	// VSub: dst C = src A − src B.
	VSub
	// VMul: dst C = src A * src B.
	VMul
	// VRsqrt: dst C = 1/sqrt(src A), the paper's custom approximation
	// used by Cholesky.
	VRsqrt
	// VSplat broadcasts lane Imm of stream A across all lanes of dst C.
	VSplat
	// VCopy: dst C = src A.
	VCopy
	// VMax: dst C = max(src A, src B), elementwise.
	VMax
	// VRelu: dst C = max(src A, 0).
	VRelu
	// VExp: dst C = exp(src A), the VXM's exponential approximation
	// (softmax support).
	VExp
	// VScale: dst C = src A · imm-encoded scalar (Imm is the float32
	// bit pattern).
	VScale

	// Halt retires the unit's stream; the chip finishes when all units
	// have halted.
	Halt

	numOps
)

// NumOps is the number of defined opcodes — the size for any table indexed
// by Op (e.g. pre-resolved trace names).
const NumOps = int(numOps)

var opNames = [...]string{
	Nop:           "nop",
	Sync:          "sync",
	Notify:        "notify",
	Deskew:        "deskew",
	RuntimeDeskew: "runtime_deskew",
	Transmit:      "transmit",
	Send:          "send",
	Recv:          "recv",
	Read:          "read",
	Write:         "write",
	LoadWeights:   "load_weights",
	MatMul:        "matmul",
	VAdd:          "vadd",
	VSub:          "vsub",
	VMul:          "vmul",
	VRsqrt:        "vrsqrt",
	VSplat:        "vsplat",
	VCopy:         "vcopy",
	VMax:          "vmax",
	VRelu:         "vrelu",
	VExp:          "vexp",
	VScale:        "vscale",
	Halt:          "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether the opcode is defined.
func (o Op) Valid() bool { return o < numOps }

// Unit identifies a functional-unit instruction stream.
type Unit uint8

const (
	// ICU is the instruction control unit (owns NOTIFY and deskew).
	ICU Unit = iota
	// MEM is the memory slice group.
	MEM
	// VXM is the vector execution module.
	VXM
	// MXM is the matrix execution module.
	MXM
	// SXM is the switch/permute module.
	SXM
	// C2C is the chip-to-chip link controller group.
	C2C

	// NumUnits is the number of functional-unit streams per chip.
	NumUnits
)

var unitNames = [...]string{ICU: "icu", MEM: "mem", VXM: "vxm", MXM: "mxm", SXM: "sxm", C2C: "c2c"}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// UnitOf maps an opcode to the functional unit that executes it.
func UnitOf(op Op) Unit {
	switch op {
	case Sync, Notify, Deskew, RuntimeDeskew, Halt, Nop:
		return ICU
	case Read, Write:
		return MEM
	case VAdd, VSub, VMul, VRsqrt, VSplat, VCopy, VMax, VRelu, VExp, VScale:
		return VXM
	case LoadWeights, MatMul:
		return MXM
	case Send, Recv, Transmit:
		return C2C
	default:
		return ICU
	}
}

// Instruction is one decoded instruction. Operand meaning is per-opcode; see
// the Op doc comments. A chip reduces stream-register, weight-row and
// memory-address operands modulo their range by design, so every value
// names something. A link operand is not reduced: a cluster rejects a
// program that sends or transmits on a link its chip lacks, and a Recv on
// one underflows.
type Instruction struct {
	Op      Op
	A, B, C uint16
	Imm     int32
}

func (in Instruction) String() string {
	return fmt.Sprintf("%s a=%d b=%d c=%d imm=%d", in.Op, in.A, in.B, in.C, in.Imm)
}

// Latency returns the deterministic issue-to-done latency of an instruction
// in cycles. Every latency is architecturally fixed — this is the property
// the whole system is built on.
func Latency(in Instruction) int64 {
	switch in.Op {
	case Nop:
		if in.Imm < 1 {
			return 1
		}
		return int64(in.Imm)
	case Sync:
		return 1 // plus an unbounded park; the park is not "latency"
	case Notify:
		return 4 // fixed global control propagation
	case Deskew:
		return 1 // plus wait-for-epoch
	case RuntimeDeskew:
		return 1 // plus the programmed stall
	case Transmit, Send:
		return 1 // occupancy; flight time is the link's, not the unit's
	case Recv:
		return 1
	case Read, Write:
		return 5 // SRAM access pipeline
	case LoadWeights:
		return 1
	case MatMul:
		// One cycle per accumulation row streamed through the array.
		if in.Imm < 1 {
			return 1
		}
		return int64(in.Imm)
	case VAdd, VSub, VMul, VCopy, VSplat, VMax, VRelu, VScale:
		return 2
	case VRsqrt, VExp:
		return 6
	case Halt:
		return 1
	default:
		return 1
	}
}

// Program is a full single-chip binary: one instruction stream per unit.
type Program struct {
	Streams [NumUnits][]Instruction
}

// Append adds an instruction to the stream of the unit that executes it.
func (p *Program) Append(in Instruction) {
	u := UnitOf(in.Op)
	p.Streams[u] = append(p.Streams[u], in)
}

// AppendTo adds an instruction to a specific unit's stream (used when an op
// must be scheduled on a non-default unit, e.g. a NOP padding the MXM).
func (p *Program) AppendTo(u Unit, in Instruction) {
	p.Streams[u] = append(p.Streams[u], in)
}

// Len returns the total instruction count across all streams.
func (p *Program) Len() int {
	n := 0
	for _, s := range p.Streams {
		n += len(s)
	}
	return n
}
