// Package tsp models a single Tensor Streaming Processor as the paper's
// multiprocessor sees it: a set of statically scheduled functional-unit
// instruction streams (ICU, MEM, VXM, MXM, SXM, C2C) operating on stream
// registers and 220 MiB of SRAM, with fully deterministic instruction
// timing.
//
// The model is both *functional* and *timing*: instructions move real data
// (so distributed kernels computed across simulated chips produce checkable
// numerical results) and advance per-unit cycle cursors with the fixed
// latencies of isa.Latency (so end-to-end cycle counts are meaningful).
//
// Data representation: a vector is 320 bytes (the architectural flit). The
// vector ALUs interpret a vector as 80 little-endian float32 lanes. The real
// chip computes FP16/INT8 at 160/320 lanes per vector; we carry float32 for
// numerical transparency and keep the paper's throughput constants in the
// analytic performance models (internal/workloads), which is where
// lane-count fidelity matters.
//
// # Lane-typed fast path
//
// The [320]byte form is the architectural truth at every determinism
// boundary — SRAM, C2C frames, checkpoints, golden dumps — but it is the
// wrong shape for the ALUs, which compute on 80 float32 lanes. Each stream
// register therefore carries both representations with per-register
// validity bits:
//
//   - a byte write (Recv, Read, SetStream, SetState) stores bytes and
//     invalidates the lane cache;
//   - an ALU write (VADD … MATMUL) stores lanes and invalidates the bytes;
//   - a byte read (Send, Write, Stream, State) lazily re-encodes lanes,
//     and a lane read (ALU operand, LoadWeights) lazily decodes bytes.
//
// Decode and encode are exact bit copies. On a little-endian host the bytes
// already are the lanes in memory order, so each is one 320-byte copy
// (codec_le.go); big-endian hosts cast lane by lane (codec_other.go). Every
// architectural byte observed at a boundary is therefore bit-for-bit what
// the original per-instruction byte path produced. reference_test.go
// retains that original path verbatim as the oracle for the differential
// tests.
//
// VADD and MATMUL run whole-vector kernels, which the Go loops vaddGeneric
// and matmulGeneric define. On amd64, VADD runs SSE2 assembly over four
// lanes per instruction (vadd_amd64.s), and MATMUL runs AVX assembly over
// eight lanes per instruction (matmul_amd64.s) when CPUID reports AVX
// usable at package init, and matmulGeneric otherwise. Elsewhere both run
// the Go loops, which the assembly is fuzzed against. Each kernel reports
// whether any result lane is NaN, and only then does execute scrub
// payloads to the canonical NaN (canonNaN). The other vector ops stay
// scalar Go loops.
package tsp

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Architectural constants.
const (
	// VectorBytes is the architectural vector size.
	VectorBytes = mem.VectorBytes
	// FloatLanes is the number of float32 lanes a vector carries in this
	// model.
	FloatLanes = VectorBytes / 4
	// NumStreams is the number of stream registers.
	NumStreams = 64
	// WeightRows is the depth of the MXM weight buffer. MatMul reads at
	// most FloatLanes (80) rows, but LoadWeights addresses rows mod
	// WeightRows, so another depth would change which row a program's
	// LoadWeights writes and what it means. Checkpoints carry only the
	// nonzero rows, so the unread depth costs a blob nothing.
	WeightRows = 160
	// MaxLinks is the number of C2C links per chip (7 local + 4 global).
	MaxLinks = 11
	// EpochCycles is the HAC epoch (hac.Period); DESKEW aligns to its
	// boundaries.
	EpochCycles = 252
	// NotifyLatency is the fixed propagation delay of the NOTIFY global
	// control signal.
	NotifyLatency = 4
)

// Vector is one 320-byte architectural vector.
type Vector [VectorBytes]byte

// Lanes is the decoded 80-lane float32 view of a vector — the shape the
// vector ALUs compute on.
type Lanes [FloatLanes]float32

// Floats decodes the vector's 80 float32 lanes.
func (v *Vector) Floats() [FloatLanes]float32 {
	var out Lanes
	v.decodeInto(&out)
	return out
}

// VectorOf builds a vector from a float slice (up to 80 lanes; the rest
// zero).
func VectorOf(f []float32) Vector {
	var lanes Lanes
	copy(lanes[:], f)
	var v Vector
	v.encodeFrom(&lanes)
	return v
}

// C2C is the chip's window onto its links. The multi-chip runtime provides
// an implementation that moves vectors between chips with the fabric's
// deterministic latency; single-chip tests can use a loopback or nil-like
// stub. Vectors cross the interface by pointer so the per-hop cost is the
// one unavoidable copy into (and out of) the in-flight queue, not 3–4
// copies through stack frames.
type C2C interface {
	// Send transmits the vector on the link at the given local cycle. The
	// pointee is only borrowed for the call: the implementation must copy
	// it before returning, as the chip may overwrite the register next.
	Send(link int, v *Vector, cycle int64)
	// Recv delivers into dst the vector that the schedule guarantees has
	// arrived on the link by the given cycle. ok=false reports a receiver
	// underflow — a schedule bug the fabric turns into a hard error — and
	// must leave dst untouched.
	Recv(link int, cycle int64, dst *Vector) bool
	// Transmit sends the program-alignment notification vector (Fig 7b).
	Transmit(link int, cycle int64)
}

// ErrorKind classifies execution faults.
type ErrorKind int

const (
	// ErrNone means clean execution.
	ErrNone ErrorKind = iota
	// ErrUnderflow is a Recv with no arrived data: the schedule lied.
	ErrUnderflow
	// ErrDeadlock means all live units are parked with no NOTIFY ahead.
	ErrDeadlock
	// ErrMemPoison is a Read that hit a detected-uncorrectable memory
	// error; the runtime must replay (§4.5).
	ErrMemPoison
)

func (k ErrorKind) String() string {
	switch k {
	case ErrNone:
		return "none"
	case ErrUnderflow:
		return "receiver-underflow"
	case ErrDeadlock:
		return "deadlock"
	case ErrMemPoison:
		return "memory-poison"
	default:
		return "unknown"
	}
}

// Fault describes an execution fault.
type Fault struct {
	Kind  ErrorKind
	Unit  isa.Unit
	Cycle int64
	Instr isa.Instruction
}

func (f *Fault) Error() string {
	return fmt.Sprintf("tsp: %v at cycle %d on %v (%v)", f.Kind, f.Cycle, f.Unit, f.Instr)
}

// opSpanName pre-resolves every opcode's trace label once at package init
// so the execute hot path indexes a table instead of calling Op.String()
// per instruction (whose out-of-range fallback allocates through fmt).
var opSpanName [isa.NumOps]string

func init() {
	for op := 0; op < isa.NumOps; op++ {
		opSpanName[op] = isa.Op(op).String()
	}
}

// Chip is one TSP instance mid-execution.
type Chip struct {
	ID      int
	Mem     *mem.SRAM
	weights [WeightRows][FloatLanes]float32
	// wmask has bit r%64 of word r/64 set for every weight row that may
	// hold a nonzero bit: LoadWeights sets a row's bit and SetState sets
	// the restored rows', so a row it leaves out is all zero and
	// CaptureState visits only the rows it names.
	wmask [(WeightRows + 63) / 64]uint64

	// Stream registers, dual-representation (see the package comment):
	// streams[i] holds the architectural bytes when byteOK[i], lanes[i]
	// the decoded float32 lanes when laneOK[i]. At least one bit is set
	// per register at all times; both set means the two forms agree.
	streams [NumStreams]Vector
	lanes   [NumStreams]Lanes
	byteOK  [NumStreams]bool
	laneOK  [NumStreams]bool

	// nzTop[i] caches 1 + the highest nonzero lane of stream i (0 = all
	// lanes zero) while nzOK[i]; any write invalidates it. MatMul bounds
	// its row loop with it, so sparse activation vectors skip the dead
	// tail of the weight matrix without a per-row scan. Purely a loop
	// bound on rows the a==0 test would skip anyway — results are
	// bit-identical with or without the cache.
	nzTop [NumStreams]uint8
	nzOK  [NumStreams]bool

	c2c  C2C
	prog *isa.Program
	// slen caches len(prog.Streams[u]) so the per-instruction unit scan
	// (NextIssue/unitDone) reads a chip-local array instead of chasing the
	// program's slice headers. units[:nunits] lists, in ascending order,
	// the units whose stream is non-empty: the only ones NextIssue scans.
	// Both are purely functions of the program, so they survive SetState
	// restores unchanged. They stay chip-local (32 bytes), where a table
	// shared like sendLinks would cost an allocation per program and a
	// pointer chase per issue.
	slen   [isa.NumUnits]int32
	units  [isa.NumUnits]isa.Unit
	nunits uint8

	pc     [isa.NumUnits]int
	cursor [isa.NumUnits]int64
	parked [isa.NumUnits]bool
	halted [isa.NumUnits]bool

	// sendLinks is the program's static send-link set (SendLinks, see
	// sendscan.go). Purely a function of the program, so it survives
	// SetState restores unchanged and chips built by NewLike share it.
	sendLinks []int

	// deskewDelta is the SAC−HAC drift applied by RUNTIME_DESKEW; the
	// runtime sets it from the hac.Device state when running multi-chip.
	deskewDelta func(cycle int64) int64

	// busy accumulates non-NOP occupancy per unit for profiling; stall
	// accumulates cycles a unit spent waiting rather than issuing — parked
	// on SYNC until a NOTIFY's wake, held at an epoch boundary by DESKEW,
	// or drift-stalled by RUNTIME_DESKEW.
	busy  [isa.NumUnits]int64
	stall [isa.NumUnits]int64

	// Observability (nil when no recorder is attached — the zero-cost
	// default for benchmarks). instrCount/busyCycles/stallCycles are
	// pre-resolved per-unit handles so the execute hot path pays no map
	// lookups.
	rec         *obs.Recorder
	instrCount  [isa.NumUnits]*obs.Counter
	busyCycles  [isa.NumUnits]*obs.Counter
	stallCycles [isa.NumUnits]*obs.Counter
	faultCount  *obs.Counter

	fault *Fault
}

// New creates a chip with fresh memory, loaded with the program. It
// records nothing until its owner calls AttachRecorder. The chip only
// reads the program, so one program may be shared by many chips.
func New(id int, prog *isa.Program, c2c C2C) *Chip {
	return newChip(id, prog, scanSendLinks(prog), c2c)
}

// NewLike creates a chip with fresh memory, loaded with sib's program. It
// shares sib's read-only program-derived tables instead of rescanning the
// program text, so a cluster pays the scan once per distinct program.
func NewLike(id int, sib *Chip, c2c C2C) *Chip {
	return newChip(id, sib.prog, sib.sendLinks, c2c)
}

func newChip(id int, prog *isa.Program, sendLinks []int, c2c C2C) *Chip {
	c := &Chip{ID: id, Mem: mem.NewSRAM(), prog: prog, c2c: c2c, sendLinks: sendLinks}
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		c.slen[u] = int32(len(prog.Streams[u]))
		if c.slen[u] > 0 {
			c.units[c.nunits] = u
			c.nunits++
		}
	}
	for i := range c.streams {
		// Zero bytes and zero lanes agree, so both views start valid; the
		// all-zero vector's nonzero summary is 0.
		c.byteOK[i] = true
		c.laneOK[i] = true
		c.nzOK[i] = true
	}
	return c
}

// Stream returns stream register i's architectural 320-byte value,
// materializing it from the lane cache when a vector ALU wrote it last.
func (c *Chip) Stream(i int) Vector { return *c.streamBytes(i) }

// StreamFloats returns stream register i decoded to its 80 float32 lanes.
func (c *Chip) StreamFloats(i int) [FloatLanes]float32 { return *c.streamLanes(i) }

// SetStream stores an architectural 320-byte value into stream register i.
func (c *Chip) SetStream(i int, v Vector) { *c.byteWrite(i) = v }

// Streams returns a copy of the whole stream-register file as
// architectural bytes, materializing any lane-cached registers — the
// comparable form used by restore/parity checks.
func (c *Chip) Streams() [NumStreams]Vector {
	var out [NumStreams]Vector
	for i := range out {
		out[i] = *c.streamBytes(i)
	}
	return out
}

// streamBytes returns stream i's architectural bytes, lazily re-encoding
// the lane cache after an ALU write. This is the only place lanes become
// bytes, and it runs the exact encode the eager byte path ran, so every
// determinism boundary sees identical bytes.
func (c *Chip) streamBytes(i int) *Vector {
	if !c.byteOK[i] {
		c.streams[i].encodeFrom(&c.lanes[i])
		c.byteOK[i] = true
	}
	return &c.streams[i]
}

// streamLanes returns stream i's decoded lanes, lazily decoding the bytes
// after a byte write (Recv/Read/SetStream).
func (c *Chip) streamLanes(i int) *Lanes {
	if !c.laneOK[i] {
		c.streams[i].decodeInto(&c.lanes[i])
		c.laneOK[i] = true
	}
	return &c.lanes[i]
}

// actTop returns 1 + the highest nonzero lane of stream i (whose lanes
// the caller has already resolved to f), computing and caching it on
// demand. It is small enough to inline, so the cached case, most MatMuls,
// costs no call.
func (c *Chip) actTop(i int, f *Lanes) int {
	if c.nzOK[i] {
		return int(c.nzTop[i])
	}
	return c.scanActTop(i, f)
}

// scanActTop computes and caches actTop's value. The reverse scan checks
// four lanes per step, so a dense vector pays ~20 compares and a sparse
// one stops at its live prefix.
//
//go:noinline
func (c *Chip) scanActTop(i int, f *Lanes) int {
	top := FloatLanes
	for top >= 4 && f[top-1] == 0 && f[top-2] == 0 && f[top-3] == 0 && f[top-4] == 0 {
		top -= 4
	}
	for top > 0 && f[top-1] == 0 {
		top--
	}
	c.nzTop[i] = uint8(top)
	c.nzOK[i] = true
	return top
}

// canonNaNBits is the single quiet-NaN bit pattern every arithmetic
// kernel emits for a NaN result. IEEE 754 leaves the payload of a NaN
// produced from NaN operands implementation-defined, and compiled code may
// legally commute operands (x86's ADDSS/MULSS propagate their first
// source), so raw result payloads would vary with codegen — observably,
// between regular and race-instrumented builds of the same kernel. Like
// RISC-V's FP spec, the architecture pins one canonical NaN instead, so
// stream bytes are a function of the program alone. Moves, compares,
// splats, and the byte↔lane codecs still preserve payloads bit-exactly;
// only arithmetic canonicalizes.
const canonNaNBits = 0x7fc00000

func canonNaN(x float32) float32 {
	if x != x {
		return math.Float32frombits(canonNaNBits)
	}
	return x
}

// canonNaNLanes canonicalizes every NaN lane of a kernel's result. The
// kernels report whether any lane is NaN, so it runs only then.
func canonNaNLanes(f *Lanes) {
	for i := range f {
		f[i] = canonNaN(f[i])
	}
}

// laneWrite marks stream i lane-authoritative and returns its lane array
// for the ALU to fill. Callers must resolve every source operand BEFORE
// calling: a source may alias the destination, and its lane cache must be
// populated before the destination's bytes are invalidated.
func (c *Chip) laneWrite(i int) *Lanes {
	c.laneOK[i] = true
	c.byteOK[i] = false
	c.nzOK[i] = false
	return &c.lanes[i]
}

// byteWrite marks stream i byte-authoritative and returns its byte array
// for a byte producer (Recv, Read, SetStream) to fill.
func (c *Chip) byteWrite(i int) *Vector {
	c.byteOK[i] = true
	c.laneOK[i] = false
	c.nzOK[i] = false
	return &c.streams[i]
}

// AttachRecorder wires the chip's instrumentation to rec (nil detaches).
// Per-instruction spans render in Perfetto as pid=chip, tid=functional
// unit; counters follow the tsp.* naming scheme.
func (c *Chip) AttachRecorder(rec *obs.Recorder) {
	c.rec = rec
	if rec == nil {
		return
	}
	rec.SetProcessName(c.ID, fmt.Sprintf("tsp%d", c.ID))
	chip := obs.Li("chip", c.ID)
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		rec.SetThreadName(c.ID, int(u), u.String())
		unit := obs.L("unit", u.String())
		c.instrCount[u] = rec.Counter("tsp.instructions", chip, unit)
		c.busyCycles[u] = rec.Counter("tsp.busy_cycles", chip, unit)
		c.stallCycles[u] = rec.Counter("tsp.stall_cycles", chip, unit)
	}
	c.faultCount = rec.Counter("tsp.faults", chip)
}

// SetDeskewDelta installs the drift oracle used by RUNTIME_DESKEW (the
// signed SAC−HAC difference at a given local cycle).
func (c *Chip) SetDeskewDelta(f func(cycle int64) int64) { c.deskewDelta = f }

// Fault returns the first execution fault, or nil.
func (c *Chip) Fault() *Fault { return c.fault }

// Done reports whether every unit has finished its stream.
func (c *Chip) Done() bool {
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if !c.unitDone(u) {
			return false
		}
	}
	return true
}

func (c *Chip) unitDone(u isa.Unit) bool {
	return c.halted[u] || c.pc[u] >= int(c.slen[u])
}

// FinishCycle returns the largest unit cursor — the chip's completion time.
func (c *Chip) FinishCycle() int64 {
	var m int64
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.cursor[u] > m {
			m = c.cursor[u]
		}
	}
	return m
}

// NextIssue returns the unit with the earliest pending instruction, or
// (NumUnits, false) when none remain runnable.
//
// Monotonicity contract: executing the returned instruction never creates
// an issue opportunity earlier than its own cycle. Unit cursors only move
// forward (every latency is ≥ 0, and RuntimeDeskew can hold a cursor at
// the current cycle but never rewind it), so once NextIssue reports time
// t, no future call on this chip reports a time < t. The cluster's heap
// executor (internal/runtime) depends on this: a chip keyed in the heap at
// its next issue cannot issue earlier, so the heap minimum bounds every
// chip's next instruction.
func (c *Chip) NextIssue() (isa.Unit, int64, bool) {
	best := isa.NumUnits
	var bestT int64
	// Ascending units keep ties going to the lowest unit.
	for _, u := range c.units[:c.nunits] {
		if c.unitDone(u) || c.parked[u] {
			continue
		}
		if best == isa.NumUnits || c.cursor[u] < bestT {
			best, bestT = u, c.cursor[u]
		}
	}
	return best, bestT, best != isa.NumUnits
}

// StepUntil executes every pending instruction with issue cycle < horizon,
// in NextIssue order, stopping early on fault. It returns the chip's next
// issue cycle (≥ horizon) and true while instructions remain runnable, or
// (0, false) when the chip ran out of runnable work or faulted.
//
// StepUntil never classifies "no runnable work" as a deadlock: the
// cluster executor performs its own wedge analysis across all chips in the
// run epilogue, and Run classifies a single chip.
func (c *Chip) StepUntil(horizon int64) (int64, bool) {
	for c.fault == nil {
		u, t, ok := c.NextIssue()
		if !ok {
			return 0, false
		}
		if t >= horizon {
			return t, true
		}
		in := &c.prog.Streams[u][c.pc[u]]
		c.pc[u]++
		if in.Op == isa.Nop {
			// Schedule padding only moves the unit's cursor (t is the
			// cursor), so it retires here without a dispatch.
			c.cursor[u] += isa.Latency(*in)
			continue
		}
		c.execute(u, *in, t)
	}
	return 0, false
}

// addStall charges a unit with wait cycles — issue-stall time the unit
// spent parked, epoch-held, or drift-stalled instead of issuing. Zero or
// negative waits are dropped so call sites can pass raw differences.
func (c *Chip) addStall(u isa.Unit, cycles int64) {
	if cycles <= 0 {
		return
	}
	c.stall[u] += cycles
	if c.rec != nil {
		c.stallCycles[u].Add(cycles)
	}
}

func (c *Chip) anyParked() bool {
	for u := isa.Unit(0); u < isa.NumUnits; u++ {
		if c.parked[u] && !c.unitDone(u) {
			return true
		}
	}
	return false
}

// Run executes until completion, fault, or full park. A chip left
// unfinished with a unit parked faults with ErrDeadlock at its finish
// cycle. It returns the finish cycle and the fault (nil on clean
// completion).
func (c *Chip) Run() (int64, *Fault) {
	c.StepUntil(math.MaxInt64)
	if c.fault == nil && !c.Done() && c.anyParked() {
		c.setFault(&Fault{Kind: ErrDeadlock, Cycle: c.FinishCycle()})
	}
	return c.FinishCycle(), c.fault
}

// execute dispatches in, issued on unit u at cycle t. NOPs never reach it:
// StepUntil retires them by moving the unit's cursor.
func (c *Chip) execute(u isa.Unit, in isa.Instruction, t int64) {
	adv := isa.Latency(in)
	c.busy[u] += adv
	if c.rec != nil {
		name := ""
		if int(in.Op) < len(opSpanName) {
			name = opSpanName[in.Op]
		} else {
			name = in.Op.String()
		}
		c.instrCount[u].Inc()
		c.busyCycles[u].Add(adv)
		c.rec.SpanCycles(c.ID, int(u), name, t, adv)
	}
	switch in.Op {
	case isa.Sync:
		c.parked[u] = true
		c.cursor[u] = t + adv
		return

	case isa.Notify:
		wake := t + NotifyLatency
		for v := isa.Unit(0); v < isa.NumUnits; v++ {
			if c.parked[v] {
				c.parked[v] = false
				if c.cursor[v] < wake {
					// The parked unit waited from its SYNC retire to the
					// wake — operand-wait stall, attributed to the waiter.
					c.addStall(v, wake-c.cursor[v])
					c.cursor[v] = wake
				}
			}
		}

	case isa.Deskew:
		// Pause issue until the next epoch boundary.
		next := ((t + adv + EpochCycles - 1) / EpochCycles) * EpochCycles
		c.addStall(u, next-(t+adv))
		c.cursor[u] = next
		return

	case isa.RuntimeDeskew:
		stall := int64(in.Imm)
		if c.deskewDelta != nil {
			stall += c.deskewDelta(t)
		}
		if stall < 0 {
			stall = 0
		}
		if stall > adv {
			c.addStall(u, stall-adv)
		}
		c.cursor[u] = t + stall
		return

	case isa.Transmit:
		if c.c2c != nil {
			c.c2c.Transmit(int(in.A), t)
		}

	case isa.Send:
		if c.c2c != nil {
			c.c2c.Send(int(in.A), c.streamBytes(int(in.B)%NumStreams), t)
		}

	case isa.Recv:
		if c.c2c != nil {
			idx := int(in.B) % NumStreams
			// Recv writes dst only on success, so the register (and its
			// validity bits) stay coherent across an underflow fault.
			if !c.c2c.Recv(int(in.A), t, &c.streams[idx]) {
				c.setFault(&Fault{Kind: ErrUnderflow, Unit: u, Cycle: t, Instr: in})
				return
			}
			c.byteOK[idx] = true
			c.laneOK[idx] = false
			c.nzOK[idx] = false
		}

	case isa.Read:
		idx := int(in.Imm) % NumStreams
		// ReadInto leaves dst untouched on a poisoned read, so the
		// register stays coherent when the fault abandons the run.
		if !c.Mem.ReadInto(memAddr(in), c.streams[idx][:]) {
			c.setFault(&Fault{Kind: ErrMemPoison, Unit: u, Cycle: t, Instr: in})
			return
		}
		c.byteOK[idx] = true
		c.laneOK[idx] = false
		c.nzOK[idx] = false

	case isa.Write:
		c.Mem.Write(memAddr(in), c.streamBytes(int(in.Imm) % NumStreams)[:])

	case isa.LoadWeights:
		r := int(in.B) % WeightRows
		c.weights[r] = *c.streamLanes(int(in.A) % NumStreams)
		c.wmask[r/64] |= 1 << (r % 64)

	case isa.MatMul:
		rows := int(in.Imm)
		if rows < 1 {
			rows = 1
		}
		if rows > WeightRows {
			rows = WeightRows
		}
		ai := int(in.A) % NumStreams
		act := c.streamLanes(ai)
		if rows > FloatLanes {
			rows = FloatLanes
		}
		// Rows above the activation's highest nonzero lane contribute
		// nothing (the a == 0 test skips them); bound the loop instead of
		// testing them one by one.
		if top := c.actTop(ai, act); rows > top {
			rows = top
		}
		// Every kernel defines all 80 lanes, so it writes the destination
		// in place unless that aliases the activation, which it reads
		// while it writes; then it fills a stack copy. NaN can only arise
		// from a non-finite input, so the canonicalizing scrub rarely runs.
		if bi := int(in.B) % NumStreams; bi != ai {
			out := c.laneWrite(bi)
			if matmul(out, act, &c.weights, rows) {
				canonNaNLanes(out)
			}
		} else {
			var out Lanes
			if matmul(&out, act, &c.weights, rows) {
				canonNaNLanes(&out)
			}
			*c.laneWrite(bi) = out
		}

	case isa.VAdd:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		if vadd(out, a, b) {
			canonNaNLanes(out)
		}

	case isa.VSub:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := 0; i+4 <= FloatLanes; i += 4 {
			out[i] = canonNaN(a[i] - b[i])
			out[i+1] = canonNaN(a[i+1] - b[i+1])
			out[i+2] = canonNaN(a[i+2] - b[i+2])
			out[i+3] = canonNaN(a[i+3] - b[i+3])
		}

	case isa.VMul:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := 0; i+4 <= FloatLanes; i += 4 {
			out[i] = canonNaN(a[i] * b[i])
			out[i+1] = canonNaN(a[i+1] * b[i+1])
			out[i+2] = canonNaN(a[i+2] * b[i+2])
			out[i+3] = canonNaN(a[i+3] * b[i+3])
		}

	case isa.VRsqrt:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			if a[i] > 0 {
				out[i] = float32(1 / math.Sqrt(float64(a[i])))
			} else {
				out[i] = 0
			}
		}

	case isa.VSplat:
		a := c.streamLanes(int(in.A) % NumStreams)
		lane := int(in.Imm)
		if lane < 0 || lane >= FloatLanes {
			lane = 0
		}
		// Capture before laneWrite: the destination may alias the source.
		s := a[lane]
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = s
		}

	case isa.VCopy:
		ai, ci := int(in.A)%NumStreams, int(in.C)%NumStreams
		if ai != ci {
			// Copy whichever representations are live; the destination
			// inherits the source's validity, so no decode or encode runs.
			if c.byteOK[ai] {
				c.streams[ci] = c.streams[ai]
			}
			if c.laneOK[ai] {
				c.lanes[ci] = c.lanes[ai]
			}
			c.byteOK[ci], c.laneOK[ci] = c.byteOK[ai], c.laneOK[ai]
			c.nzTop[ci], c.nzOK[ci] = c.nzTop[ai], c.nzOK[ai]
		}

	case isa.VMax:
		a := c.streamLanes(int(in.A) % NumStreams)
		b := c.streamLanes(int(in.B) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			// Read both operands before the store: out may alias either.
			av, bv := a[i], b[i]
			if bv > av {
				av = bv
			}
			out[i] = av
		}

	case isa.VRelu:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			if a[i] > 0 {
				out[i] = a[i]
			} else {
				out[i] = 0
			}
		}

	case isa.VExp:
		a := c.streamLanes(int(in.A) % NumStreams)
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = float32(math.Exp(float64(a[i])))
		}

	case isa.VScale:
		a := c.streamLanes(int(in.A) % NumStreams)
		k := math.Float32frombits(uint32(in.Imm))
		out := c.laneWrite(int(in.C) % NumStreams)
		for i := range out {
			out[i] = canonNaN(a[i] * k)
		}

	case isa.Halt:
		c.halted[u] = true
		c.cursor[u] = t + adv
		return
	}
	c.cursor[u] = t + adv
}

// setFault records the chip's first execution fault, mirroring it into
// the trace as an instant event on the faulting unit's track.
func (c *Chip) setFault(f *Fault) {
	c.fault = f
	if c.rec != nil {
		c.faultCount.Inc()
		c.rec.InstantCycles(c.ID, int(f.Unit), "fault:"+f.Kind.String(), f.Cycle)
	}
}

// memAddr decodes the (A=hemisphere*44+slice, B=bank, C=offset) operand
// convention shared by Read and Write.
func memAddr(in isa.Instruction) mem.Addr {
	return mem.Addr{
		Hemisphere: int(in.A) / mem.Slices % mem.Hemispheres,
		Slice:      int(in.A) % mem.Slices,
		Bank:       int(in.B) % mem.Banks,
		Offset:     int(in.C) % mem.Addresses,
	}
}
