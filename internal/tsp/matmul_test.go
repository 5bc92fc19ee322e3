package tsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// matmulTier is one MXM kernel with matmul's signature. matmulTiers (one
// version per GOARCH, in matmul_tiers_*_test.go) lists every tier the host
// can run; the tests below check each against matmulGeneric.
type matmulTier struct {
	name   string
	kernel func(out, act *Lanes, w *[WeightRows][FloatLanes]float32, rows int) bool
}

// TestMatMulLiveTier logs the kernel matmul runs on this host, so a
// benchmark log says which tier it timed.
func TestMatMulLiveTier(t *testing.T) {
	t.Logf("MXM kernel: %s", liveMatMulTier())
}

// TestMatMulRoundsEachProduct pins a MatMul whose fused and unfused
// results differ. Row 1's product (1+2^-12)^2 = 1 + 2^-11 + 2^-24 needs 25
// mantissa bits, so rounding it before adding row 0's -1 gives 2^-11, while
// an FMA would keep the 2^-24. Stream bytes must not depend on GOARCH, so
// the chip and every kernel tier must round the product first.
func TestMatMulRoundsEachProduct(t *testing.T) {
	const x = 1 + 0x1p-12
	want := math.Float32bits(0x1p-11)

	chip := New(0, mustProg(t, `
load_weights s1 0
load_weights s2 1
matmul s3 s4 2
`), nil)
	chip.SetStream(1, VectorOf([]float32{-1}))
	chip.SetStream(2, VectorOf([]float32{x}))
	chip.SetStream(3, VectorOf([]float32{1, x}))
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	if got := math.Float32bits(chip.StreamFloats(4)[0]); got != want {
		t.Errorf("chip: lane 0 = %#08x, want %#08x", got, want)
	}

	var act Lanes
	var w [WeightRows][FloatLanes]float32
	act[0], act[1] = 1, x
	w[0][0], w[1][0] = -1, x
	for _, k := range matmulTiers() {
		var out Lanes
		k.kernel(&out, &act, &w, 2)
		if got := math.Float32bits(out[0]); got != want {
			t.Errorf("%s: lane 0 = %#08x, want %#08x", k.name, got, want)
		}
	}
}

// TestMatMulFlagsEveryNaNLane plants one NaN weight in each output lane in
// turn: every tier's NaN flag must see it whichever accumulator holds the
// lane.
func TestMatMulFlagsEveryNaNLane(t *testing.T) {
	var act, out Lanes
	var w [WeightRows][FloatLanes]float32
	act[0] = 1
	for _, k := range matmulTiers() {
		for j := range FloatLanes {
			w[0][j] = float32(math.NaN())
			if !k.kernel(&out, &act, &w, 1) {
				t.Errorf("%s: NaN in lane %d not flagged", k.name, j)
			}
			w[0][j] = 0
		}
	}
}

// FuzzMatMulKernel checks every kernel tier the host can run
// (matmulTiers: the AVX and AVX-512 assembly where CPUID reports them
// usable) against matmulGeneric, bit for bit: every output lane once NaN
// payloads are canonicalized, and the NaN flag. Every output starts out
// filled with junk, so each kernel must define all 80 lanes. seed fills
// the 80 activation lanes and an 80-row weight tile; each word is drawn
// from hostileBits with probability hostile/256 and is otherwise a finite
// value with a random mantissa. patch then overwrites words with
// arbitrary bits, six bytes each: a little-endian uint16 position
// (activation lanes 0-79, then the weights row-major) and the uint32 bits.
// The kernels run rows%81 rows.
//
// The seed corpus (testdata/fuzz/FuzzMatMulKernel) holds dense finite
// rows, sparse and dense hostile mixes, zero rows, +0 and -0 activations
// over ±Inf and NaN weights (skipped rows), a NaN activation over zero
// weights (not skipped), and finite products that overflow to +Inf and
// -Inf in one lane and sum to NaN. The zmm-boundary entries put NaN, ±Inf
// and overflowing products in lanes 15/16, 31/32, 47/48 and 63/64, either
// side of each 16-lane ZMM accumulator's edge, and NaN and -0 activations
// in rows 15/16 and 63/64.
func FuzzMatMulKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, rows, hostile uint8, patch []byte) {
		r := &diffRNG{s: seed}
		word := func() float32 {
			if r.intn(256) < int(hostile) {
				return math.Float32frombits(hostileBits(r))
			}
			// Exponents 2^-27..2^22 keep sums inexact but finite.
			return math.Float32frombits(uint32(r.intn(2))<<31 | uint32(100+r.intn(50))<<23 | uint32(r.next())&0x7fffff)
		}
		var act Lanes
		var w [WeightRows][FloatLanes]float32
		for i := range act {
			act[i] = word()
		}
		for i := 0; i < FloatLanes; i++ {
			for j := range w[i] {
				w[i][j] = word()
			}
		}
		for ; len(patch) >= 6; patch = patch[6:] {
			pos := int(binary.LittleEndian.Uint16(patch)) % ((1 + FloatLanes) * FloatLanes)
			bits := math.Float32frombits(binary.LittleEndian.Uint32(patch[2:]))
			if pos < FloatLanes {
				act[pos] = bits
			} else {
				w[pos/FloatLanes-1][pos%FloatLanes] = bits
			}
		}
		n := int(rows) % (FloatLanes + 1)

		var want Lanes
		for i := range want {
			want[i] = word()
		}
		wantNaN := matmulGeneric(&want, &act, &w, n)
		for _, k := range matmulTiers() {
			var got Lanes
			for i := range got {
				got[i] = word()
			}
			if gotNaN := k.kernel(&got, &act, &w, n); gotNaN != wantNaN {
				t.Fatalf("%s rows %d: NaN flag %v, generic %v", k.name, n, gotNaN, wantNaN)
			}
			for j := range got {
				g, x := math.Float32bits(canonNaN(got[j])), math.Float32bits(canonNaN(want[j]))
				if g != x {
					t.Fatalf("%s rows %d lane %d: %#08x, generic %#08x", k.name, n, j, g, x)
				}
			}
		}
	})
}

// Repro: SetState into a freshly constructed chip must invalidate the
// nzTop cache. New() marks every register nzOK with nzTop=0 (all-zero),
// and SetState does not clear it, so a restored nonzero activation
// register consumed by MatMul before any write sees rows=0.
func TestReproSetStateStaleNzTop(t *testing.T) {
	src := `
load_weights s1 0
load_weights s2 1
load_weights s3 2
matmul s4 s10 3
`
	direct := New(0, mustProg(t, src), nil)
	direct.SetStream(1, VectorOf([]float32{1, 0, 2}))
	direct.SetStream(2, VectorOf([]float32{0, 1, 0}))
	direct.SetStream(3, VectorOf([]float32{5, 5, 5}))
	direct.SetStream(4, VectorOf([]float32{2, 3, 4}))
	snap := captured(direct)
	if _, f := direct.Run(); f != nil {
		t.Fatal(f)
	}
	want := direct.StreamFloats(10)

	restored := New(0, mustProg(t, src), nil)
	restored.SetState(snap)
	if _, f := restored.Run(); f != nil {
		t.Fatal(f)
	}
	got := restored.StreamFloats(10)
	if got != want {
		t.Fatalf("restored run diverged: got %v want %v", got[:4], want[:4])
	}
}
