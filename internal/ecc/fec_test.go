package ecc

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// fecPayload builds a deterministic pseudo-random 320-byte payload.
func fecPayload(seed uint64) []byte {
	payload := make([]byte, FrameWords*8)
	rng := sim.NewRNG(seed)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	return payload
}

// TestFrameExhaustiveSingleBitCorrection flips every one of the
// FrameWords*64 payload bit positions, one at a time, and requires the
// frame to round-trip: exactly one corrected SBE, no MBE, payload
// restored byte for byte. This is the FEC rung of the §4.5 ladder — any
// position where correction failed would force a needless replay.
func TestFrameExhaustiveSingleBitCorrection(t *testing.T) {
	payload := fecPayload(42)
	clean := EncodeFrame(payload)
	for bit := 0; bit < FrameWords*64; bit++ {
		bad := clean // FECFrame is a value; this is a full copy
		bad.InjectBitError(bit)
		got, corrected, mbe := DecodeFrame(bad)
		if mbe {
			t.Fatalf("bit %d (stripe %d): spurious MBE", bit, bit/64)
		}
		if corrected != 1 {
			t.Fatalf("bit %d (stripe %d): corrected = %d, want 1", bit, bit/64, corrected)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("bit %d (stripe %d): payload not restored", bit, bit/64)
		}
	}
}

// TestFrameExhaustiveCheckBitCorrection does the same sweep over every
// check bit of every stripe: a flipped parity bit must be recognized
// without touching the payload.
func TestFrameExhaustiveCheckBitCorrection(t *testing.T) {
	payload := fecPayload(43)
	clean := EncodeFrame(payload)
	for w := 0; w < FrameWords; w++ {
		for c := 0; c < 8; c++ {
			bad := clean
			bad.Words[w] = flipCheckBit(bad.Words[w], c)
			got, corrected, mbe := DecodeFrame(bad)
			if mbe || corrected != 1 {
				t.Fatalf("stripe %d check bit %d: corrected=%d mbe=%v", w, c, corrected, mbe)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("stripe %d check bit %d: payload corrupted", w, c)
			}
		}
	}
}

// TestFrameRandomDoubleBitDetection is the randomized property test for
// the detect side: two distinct flipped bits within one stripe — drawn
// anywhere in its 72-bit codeword (64 data + 8 check) — must always
// surface as a detected MBE, never as a silent "correction". Seeded, so
// every run checks the identical 4000 error patterns.
func TestFrameRandomDoubleBitDetection(t *testing.T) {
	payload := fecPayload(44)
	clean := EncodeFrame(payload)
	rng := sim.NewRNG(7)
	flip := func(w Word72, bit int) Word72 {
		if bit < 64 {
			return FlipDataBit(w, bit)
		}
		return flipCheckBit(w, bit-64)
	}
	for trial := 0; trial < 4000; trial++ {
		stripe := int(rng.Uint64() % FrameWords)
		b1 := int(rng.Uint64() % 72)
		b2 := int(rng.Uint64() % 72)
		for b2 == b1 {
			b2 = int(rng.Uint64() % 72)
		}
		bad := clean
		bad.Words[stripe] = flip(flip(bad.Words[stripe], b1), b2)
		_, corrected, mbe := DecodeFrame(bad)
		if !mbe {
			t.Fatalf("trial %d: stripe %d bits (%d,%d): double error not detected", trial, stripe, b1, b2)
		}
		if corrected != 0 {
			t.Fatalf("trial %d: stripe %d bits (%d,%d): phantom correction alongside MBE", trial, stripe, b1, b2)
		}
	}
}

// TestFrameDoubleBitAcrossStripesCorrected: two single-bit errors in
// different stripes are independent SBEs — both corrected, no MBE. This
// is the interleaving property that makes the per-stripe code usable as
// link FEC.
func TestFrameDoubleBitAcrossStripesCorrected(t *testing.T) {
	payload := fecPayload(45)
	clean := EncodeFrame(payload)
	rng := sim.NewRNG(8)
	for trial := 0; trial < 2000; trial++ {
		s1 := int(rng.Uint64() % FrameWords)
		s2 := int(rng.Uint64() % FrameWords)
		for s2 == s1 {
			s2 = int(rng.Uint64() % FrameWords)
		}
		bad := clean
		bad.InjectBitError(s1*64 + int(rng.Uint64()%64))
		bad.InjectBitError(s2*64 + int(rng.Uint64()%64))
		got, corrected, mbe := DecodeFrame(bad)
		if mbe || corrected != 2 {
			t.Fatalf("trial %d: stripes (%d,%d): corrected=%d mbe=%v, want 2/false", trial, s1, s2, corrected, mbe)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("trial %d: payload not restored", trial)
		}
	}
}
