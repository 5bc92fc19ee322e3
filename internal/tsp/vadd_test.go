package tsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestCodecIsLittleEndianLanes pins the byte layout both codec files must
// produce: lane i is the little-endian uint32 at bytes 4i..4i+3, bit for
// bit, NaN payloads included. The differential tests share the codec with
// their oracle, so only this test sees a codec that is wrong on both sides.
func TestCodecIsLittleEndianLanes(t *testing.T) {
	r := &diffRNG{s: 23}
	for trial := 0; trial < 200; trial++ {
		v := hostileVector(r)
		var l Lanes
		v.decodeInto(&l)
		var back Vector
		for i, x := range l {
			bits := binary.LittleEndian.Uint32(v[4*i:])
			if got := math.Float32bits(x); got != bits {
				t.Fatalf("trial %d lane %d: decoded %#08x, bytes hold %#08x", trial, i, got, bits)
			}
			binary.LittleEndian.PutUint32(back[4*i:], bits)
		}
		var enc Vector
		enc.encodeFrom(&l)
		if enc != back {
			t.Fatalf("trial %d: encodeFrom differs from the little-endian layout", trial)
		}
	}
}

// TestVAddFlagsEveryNaNLane makes one lane NaN in turn, as +Inf + -Inf, so
// from operands that are not NaN: the NaN flag must see it whichever block
// holds the lane, and zero operands must not raise it.
func TestVAddFlagsEveryNaNLane(t *testing.T) {
	var a, b, out Lanes
	for j := range FloatLanes {
		a[j], b[j] = float32(math.Inf(1)), float32(math.Inf(-1))
		if !vadd(&out, &a, &b) {
			t.Errorf("NaN in lane %d not flagged", j)
		}
		if x := out[j]; x == x {
			t.Errorf("lane %d: %v, want NaN", j, x)
		}
		a[j], b[j] = 0, 0
	}
	if vadd(&out, &a, &b) {
		t.Error("NaN flagged on zero operands")
	}
}

// FuzzVAddKernel checks the live kernel (SSE2 assembly on amd64) against
// vaddGeneric: every output lane bit for bit once NaN payloads are
// canonicalized, and the NaN flag. seed fills the two operands' 160 lanes;
// each word is drawn from hostileBits with probability hostile/256 and is
// otherwise a finite value with a random mantissa. patch then overwrites
// words with arbitrary bits, five bytes each: a position byte (lanes of a,
// then of b, mod 160) and the little-endian uint32 bits. shape%5 picks the
// operand aliasing, which both kernels run in: distinct registers,
// out==a, out==b, a==b, or all three the same.
func FuzzVAddKernel(f *testing.F) {
	for shape := range uint8(5) {
		f.Add(uint64(shape), shape, uint8(0), []byte(nil))
		f.Add(uint64(shape)+100, shape, uint8(255), []byte(nil))
	}
	// +Inf + -Inf in lane 0 and lane 79: NaN from non-NaN operands.
	f.Add(uint64(1), uint8(0), uint8(0), []byte{0, 0, 0, 0x80, 0x7f, 80, 0, 0, 0x80, 0xff, 79, 0, 0, 0x80, 0x7f, 159, 0, 0, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, seed uint64, shape, hostile uint8, patch []byte) {
		r := &diffRNG{s: seed}
		var ops [2]Lanes
		for k := range ops {
			for i := range ops[k] {
				if r.intn(256) < int(hostile) {
					ops[k][i] = math.Float32frombits(hostileBits(r))
				} else {
					// Exponents 2^-27..2^22 keep sums inexact but finite.
					ops[k][i] = math.Float32frombits(uint32(r.intn(2))<<31 | uint32(100+r.intn(50))<<23 | uint32(r.next())&0x7fffff)
				}
			}
		}
		for ; len(patch) >= 5; patch = patch[5:] {
			pos := int(patch[0]) % (2 * FloatLanes)
			ops[pos/FloatLanes][pos%FloatLanes] = math.Float32frombits(binary.LittleEndian.Uint32(patch[1:]))
		}
		run := func(kernel func(out, a, b *Lanes) bool) (Lanes, bool) {
			regs := [3]Lanes{ops[0], ops[1]}
			a, b, out := &regs[0], &regs[1], &regs[2]
			switch shape % 5 {
			case 1:
				out = a
			case 2:
				out = b
			case 3:
				b = a
			case 4:
				b, out = a, a
			}
			nan := kernel(out, a, b)
			return *out, nan
		}
		got, gotNaN := run(vadd)
		want, wantNaN := run(vaddGeneric)
		if gotNaN != wantNaN {
			t.Fatalf("shape %d: NaN flag %v, generic %v", shape%5, gotNaN, wantNaN)
		}
		for j := range got {
			g, x := math.Float32bits(canonNaN(got[j])), math.Float32bits(canonNaN(want[j]))
			if g != x {
				t.Fatalf("shape %d lane %d: %#08x, generic %#08x", shape%5, j, g, x)
			}
		}
	})
}
