package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestEncodeDecodeClean(t *testing.T) {
	for _, d := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63} {
		w := Encode(d)
		got, res := Decode(w)
		if res != OK || got != d {
			t.Fatalf("clean decode of %#x: got %#x res %v", d, got, res)
		}
	}
}

// Decoding an unflipped word gives back its data with OK: the clean-frame
// bypass in c2c.Link.TransferVector skips the codec on that basis.
func TestDecodeEncodeIsIdentity(t *testing.T) {
	if err := quick.Check(func(d uint64) bool {
		got, res := Decode(Encode(d))
		return got == d && res == OK
	}, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSingleDataBitErrorsCorrected(t *testing.T) {
	data := uint64(0x0123456789abcdef)
	w := Encode(data)
	for i := 0; i < 64; i++ {
		bad := FlipDataBit(w, i)
		got, res := Decode(bad)
		if res != CorrectedSBE {
			t.Fatalf("bit %d: result %v, want corrected", i, res)
		}
		if got != data {
			t.Fatalf("bit %d: corrected to %#x, want %#x", i, got, data)
		}
	}
}

func TestAllSingleCheckBitErrorsCorrected(t *testing.T) {
	data := uint64(0xfeedface00112233)
	w := Encode(data)
	for i := 0; i < 8; i++ {
		bad := flipCheckBit(w, i)
		got, res := Decode(bad)
		if res != CorrectedSBE {
			t.Fatalf("check bit %d: result %v, want corrected", i, res)
		}
		if got != data {
			t.Fatalf("check bit %d: data corrupted to %#x", i, got)
		}
	}
}

func TestAllDoubleBitErrorsDetected(t *testing.T) {
	data := uint64(0xa5a5a5a5a5a5a5a5)
	w := Encode(data)
	// Exhaustive over data-bit pairs.
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			bad := FlipDataBit(FlipDataBit(w, i), j)
			_, res := Decode(bad)
			if res != DetectedMBE {
				t.Fatalf("bits (%d,%d): result %v, want detected MBE", i, j, res)
			}
		}
	}
	// Data bit + check bit pairs.
	for i := 0; i < 64; i++ {
		for j := 0; j < 8; j++ {
			bad := flipCheckBit(FlipDataBit(w, i), j)
			_, res := Decode(bad)
			if res != DetectedMBE {
				t.Fatalf("data %d + check %d: result %v, want detected MBE", i, j, res)
			}
		}
	}
	// Check bit pairs.
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			bad := flipCheckBit(flipCheckBit(w, i), j)
			_, res := Decode(bad)
			if res != DetectedMBE {
				t.Fatalf("check bits (%d,%d): result %v, want detected MBE", i, j, res)
			}
		}
	}
}

func TestSECDEDProperty(t *testing.T) {
	if err := quick.Check(func(data uint64, b1, b2 uint8) bool {
		w := Encode(data)
		i, j := int(b1%64), int(b2%64)
		if i == j {
			got, res := Decode(FlipDataBit(w, i))
			return res == CorrectedSBE && got == data
		}
		_, res := Decode(FlipDataBit(FlipDataBit(w, i), j))
		return res == DetectedMBE
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := make([]byte, FrameWords*8)
	rng := sim.NewRNG(1)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	f := EncodeFrame(payload)
	got, corrected, mbe := DecodeFrame(f)
	if corrected != 0 || mbe {
		t.Fatalf("clean frame: corrected=%d mbe=%v", corrected, mbe)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload byte %d mismatch", i)
		}
	}
}

func TestFrameSingleBitErrorsCorrected(t *testing.T) {
	payload := make([]byte, FrameWords*8)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// One error per stripe, all stripes at once: all corrected.
	f := EncodeFrame(payload)
	for w := 0; w < FrameWords; w++ {
		f.InjectBitError(w*64 + (w % 64))
	}
	got, corrected, mbe := DecodeFrame(f)
	if mbe {
		t.Fatal("per-stripe single errors must not raise MBE")
	}
	if corrected != FrameWords {
		t.Fatalf("corrected = %d, want %d", corrected, FrameWords)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload byte %d not restored", i)
		}
	}
}

func TestFrameBurstErrorDetected(t *testing.T) {
	payload := make([]byte, FrameWords*8)
	f := EncodeFrame(payload)
	// A burst inside one stripe: two adjacent bits.
	f.InjectBitError(100)
	f.InjectBitError(101)
	_, _, mbe := DecodeFrame(f)
	if !mbe {
		t.Fatal("two-bit burst within a stripe must be detected as MBE")
	}
}

func TestEncodeFrameWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeFrame with wrong payload size did not panic")
		}
	}()
	EncodeFrame(make([]byte, 100))
}

func TestResultString(t *testing.T) {
	if OK.String() != "ok" || CorrectedSBE.String() != "corrected-sbe" ||
		DetectedMBE.String() != "detected-mbe" || Result(99).String() != "unknown" {
		t.Fatal("Result.String mismatch")
	}
}

// flipCheckBit returns a copy of w with check bit i (0..7) flipped.
func flipCheckBit(w Word72, i int) Word72 {
	w.Check ^= 1 << uint(i)
	return w
}
