// Differential tests for the lane-typed fast path: every vector ALU
// opcode, executed through the real lane-cached execute path, must leave
// byte-identical architectural state to the retained reference byte path
// (reference_test.go) — over arbitrary inputs including NaN payloads, Inf,
// denormals, and negative zero, and over every register-aliasing shape.
package tsp

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// diffRNG is a tiny splitmix64 so the test owns its stream and reruns are
// reproducible from the seed printed on failure.
type diffRNG struct{ s uint64 }

func (r *diffRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// hostileBits returns a float32 bit pattern drawn from a distribution that
// over-represents the encodings where a lossy lane cache would betray
// itself: NaNs with random payloads, ±Inf, denormals, ±0, and huge/tiny
// magnitudes, alongside ordinary values.
func hostileBits(r *diffRNG) uint32 {
	switch r.intn(8) {
	case 0: // NaN, random payload and sign (quiet and signaling patterns)
		return 0x7f800000 | uint32(r.next())&0x807fffff | uint32(r.intn(2))<<22 | 1
	case 1: // ±Inf
		return 0x7f800000 | uint32(r.intn(2))<<31
	case 2: // denormal
		return uint32(r.next())&0x007fffff | uint32(r.intn(2))<<31
	case 3: // ±0
		return uint32(r.intn(2)) << 31
	case 4: // huge finite
		return 0x7f000000 | uint32(r.next())&0x00ffffff&^0x00800000 | uint32(r.intn(2))<<31
	default: // ordinary value in a modest range
		return math.Float32bits(float32(int64(r.next()%2048)-1024) / 16)
	}
}

func hostileVector(r *diffRNG) Vector {
	var f [FloatLanes]float32
	for i := range f {
		f[i] = math.Float32frombits(hostileBits(r))
	}
	v := VectorOf(f[:])
	return v
}

// dataOps is every opcode the oracle covers, i.e. the full VXM/MXM
// data-path set the lane cache accelerates.
var dataOps = []isa.Op{
	isa.MatMul, isa.VAdd, isa.VSub, isa.VMul, isa.VRsqrt, isa.VSplat,
	isa.VCopy, isa.VMax, isa.VRelu, isa.VExp, isa.VScale,
}

// runOne executes a single data-path instruction on a fresh chip whose
// registers A and B (and weights, for MatMul) are loaded via the byte-path
// SetStream, then compares every register's architectural bytes against the
// oracle's prediction.
func TestLaneKernelsMatchReferenceSingleOp(t *testing.T) {
	r := &diffRNG{s: 0xd1f2}
	prog := &isa.Program{}
	for trial := 0; trial < 400; trial++ {
		op := dataOps[r.intn(len(dataOps))]
		// Register assignment: exercise all aliasing shapes — distinct,
		// A==C, B==C, A==B, A==B==C.
		var ra, rb, rc int
		switch r.intn(5) {
		case 0:
			ra, rb, rc = 1, 2, 3
		case 1:
			ra, rb, rc = 1, 2, 1 // A==C
		case 2:
			ra, rb, rc = 1, 2, 2 // B==C
		case 3:
			ra, rb, rc = 1, 1, 2 // A==B
		default:
			ra, rb, rc = 1, 1, 1 // A==B==C
		}
		var imm int32
		switch op {
		case isa.MatMul:
			imm = int32(r.intn(WeightRows + 2)) // includes out-of-range clamps
		case isa.VSplat:
			imm = int32(r.intn(FloatLanes+8)) - 4 // includes out-of-range lanes
		case isa.VScale:
			imm = int32(hostileBits(r))
		}

		c := New(0, prog, nil)
		va, vb := hostileVector(r), hostileVector(r)
		c.SetStream(ra, va)
		c.SetStream(rb, vb)
		var weights [WeightRows][FloatLanes]float32
		if op == isa.MatMul {
			for row := 0; row < WeightRows; row++ {
				w := hostileVector(r)
				c.SetStream(4, w)
				c.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: 4, B: uint16(row)}, 0)
				weights[row] = refLoadWeights(w)
			}
		}
		// The oracle sees the post-aliasing source values: ra/rb may be the
		// same register, so re-read what each operand actually holds.
		oa, ob := c.Stream(ra), c.Stream(rb)
		want, ok := refVectorOp(op, oa, ob, imm, &weights)
		if !ok {
			t.Fatalf("oracle does not cover %v", op)
		}

		in := isa.Instruction{Op: op, A: uint16(ra), B: uint16(rb), C: uint16(rc), Imm: imm}
		if op == isa.MatMul {
			// MatMul's destination is operand B in the encoding.
			in = isa.Instruction{Op: op, A: uint16(ra), B: uint16(rc), Imm: imm}
		}
		c.execute(isa.VXM, in, 0)

		if got := c.Stream(rc); got != want {
			t.Fatalf("trial %d: %v (A=%d B=%d C=%d imm=%d): lane path diverges from byte path\n got[0:16]=% x\nwant[0:16]=% x",
				trial, op, ra, rb, rc, imm, got[:16], want[:16])
		}
		// Non-destination registers must be untouched.
		if rc != ra {
			if got := c.Stream(ra); got != oa {
				t.Fatalf("trial %d: %v clobbered source A", trial, op)
			}
		}
		if rc != rb {
			if got := c.Stream(rb); got != ob {
				t.Fatalf("trial %d: %v clobbered source B", trial, op)
			}
		}
	}
}

// TestLaneCacheChainsMatchReference drives long random sequences of
// data-path instructions through one chip, so results chain: a lane-cached
// destination becomes a later operand, gets spilled through SetStream /
// Stream round-trips, and crosses byte producers (SetStream) mid-stream.
// A shadow register file updated purely via the reference byte path must
// agree with the chip's architectural view after every step.
func TestLaneCacheChainsMatchReference(t *testing.T) {
	for _, seed := range []uint64{1, 0xbeef, 0x5ca1ab1e} {
		r := &diffRNG{s: seed}
		prog := &isa.Program{}
		c := New(0, prog, nil)
		var shadow [NumStreams]Vector
		var weights [WeightRows][FloatLanes]float32

		for step := 0; step < 1500; step++ {
			switch r.intn(10) {
			case 0: // byte producer: external store into a register
				i, v := r.intn(8), hostileVector(r)
				c.SetStream(i, v)
				shadow[i] = v
			case 1: // LoadWeights from a (possibly lane-cached) register
				src, row := r.intn(8), r.intn(WeightRows)
				c.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: uint16(src), B: uint16(row)}, 0)
				weights[row] = refLoadWeights(shadow[src])
			default: // data-path op over current register contents
				op := dataOps[r.intn(len(dataOps))]
				ra, rb, rc := r.intn(8), r.intn(8), r.intn(8)
				var imm int32
				switch op {
				case isa.MatMul:
					imm = int32(r.intn(WeightRows + 2))
				case isa.VSplat:
					imm = int32(r.intn(FloatLanes+8)) - 4
				case isa.VScale:
					imm = int32(hostileBits(r))
				}
				in := isa.Instruction{Op: op, A: uint16(ra), B: uint16(rb), C: uint16(rc), Imm: imm}
				if op == isa.MatMul {
					in = isa.Instruction{Op: op, A: uint16(ra), B: uint16(rc), Imm: imm}
				}
				c.execute(isa.VXM, in, 0)
				want, ok := refVectorOp(op, shadow[ra], shadow[rb], imm, &weights)
				if !ok {
					t.Fatalf("oracle does not cover %v", op)
				}
				shadow[rc] = want
			}
			// Spot-check one random register every step, and the full file
			// periodically (Streams() forces lazy re-encode of every
			// lane-cached register — the determinism-boundary view).
			i := r.intn(8)
			if got := c.Stream(i); got != shadow[i] {
				t.Fatalf("seed %#x step %d: stream %d diverged", seed, step, i)
			}
			if step%97 == 0 {
				all := c.Streams()
				for j := range shadow {
					if all[j] != shadow[j] {
						t.Fatalf("seed %#x step %d: full-file check: stream %d diverged", seed, step, j)
					}
				}
			}
		}
	}
}

// TestLaneDecodeEncodeBijective pins the property the whole design rests
// on: byte→lane→byte round-trips are the identity for every bit pattern
// class, including NaN payloads (Float32frombits/Float32bits are bit casts
// on this target, not value conversions).
func TestLaneDecodeEncodeBijective(t *testing.T) {
	r := &diffRNG{s: 7}
	for trial := 0; trial < 2000; trial++ {
		v := hostileVector(r)
		var l Lanes
		v.decodeInto(&l)
		var back Vector
		back.encodeFrom(&l)
		if back != v {
			t.Fatalf("trial %d: byte→lane→byte not identity:\n in[0:16]=% x\nout[0:16]=% x", trial, v[:16], back[:16])
		}
	}
}
