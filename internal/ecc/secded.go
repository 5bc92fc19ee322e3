// Package ecc implements the error-protection codes the paper relies on for
// a deterministic fabric: single-error-correct / double-error-detect
// (SECDED) Hamming coding on every 64-bit memory word, and an interleaved
// variant used as the forward-error-correction (FEC) layer on C2C links.
//
// The design point being reproduced (paper §4.5): links must never use a
// link-layer *retry*, because retransmission changes arrival times and
// destroys the global schedule. Instead every hop corrects single-bit errors
// in situ, and uncorrectable multi-bit errors are *detected* and surfaced to
// the runtime, which replays the whole inference on known-good hardware.
package ecc

import "math/bits"

// Hamming(72,64) SECDED: 64 data bits, 7 Hamming parity bits placed at
// power-of-two positions of a 71-bit codeword, plus one overall parity bit.
//
// Codeword layout (1-indexed positions 1..71): positions 1,2,4,8,16,32,64
// hold parity; every other position holds the next data bit in order.
// Bit 0 of the packed uint8 slice / position 72 holds overall parity.

// Word72 is one SECDED-protected 64-bit word: 64 data bits + 8 check bits.
type Word72 struct {
	Data  uint64
	Check uint8
}

// parityPositions are the 1-indexed codeword positions holding Hamming bits.
var parityPositions = [7]uint{1, 2, 4, 8, 16, 32, 64}

// dataPosition maps data-bit index (0..63) to its 1-indexed codeword slot.
var dataPosition [64]uint

// parityMask[pi] has bit i set when data bit i is covered by Hamming
// parity bit pi, so each parity computes as one masked popcount.
var parityMask [7]uint64

func init() {
	slot := uint(1)
	for i := 0; i < 64; i++ {
		for isPowerOfTwo(slot) {
			slot++
		}
		dataPosition[i] = slot
		slot++
	}
	for pi, pos := range parityPositions {
		for i := 0; i < 64; i++ {
			if dataPosition[i]&pos != 0 {
				parityMask[pi] |= 1 << uint(i)
			}
		}
	}
}

func isPowerOfTwo(x uint) bool { return x&(x-1) == 0 }

// Encode computes the check bits for a 64-bit data word.
func Encode(data uint64) Word72 {
	var check uint8
	// Hamming bits: parity bit p covers all positions with bit p set.
	for pi := range parityPositions {
		check |= uint8(bits.OnesCount64(data&parityMask[pi])&1) << uint(pi)
	}
	// Overall parity over data + hamming bits (even parity).
	overall := uint(bits.OnesCount64(data)) ^ uint(bits.OnesCount8(check&0x7f))
	check |= uint8(overall&1) << 7
	return Word72{Data: data, Check: check}
}

// Result classifies the outcome of a Decode.
type Result int

const (
	// OK means the word was error-free.
	OK Result = iota
	// CorrectedSBE means a single-bit error was corrected in situ.
	CorrectedSBE
	// DetectedMBE means an uncorrectable multi-bit error was detected;
	// the data must not be used and the runtime must replay.
	DetectedMBE
)

func (r Result) String() string {
	switch r {
	case OK:
		return "ok"
	case CorrectedSBE:
		return "corrected-sbe"
	case DetectedMBE:
		return "detected-mbe"
	default:
		return "unknown"
	}
}

// Decode checks and, if necessary and possible, corrects the word. It
// returns the (possibly corrected) data and the classification.
func Decode(w Word72) (uint64, Result) {
	fresh := Encode(w.Data)
	synd := uint(0)
	for pi, pos := range parityPositions {
		if (fresh.Check^w.Check)&(1<<uint(pi)) != 0 {
			synd |= pos
		}
	}
	// Overall (even) parity is checked over the *received* codeword: data
	// bits plus all eight received check bits. A single flipped bit
	// anywhere makes the total odd; a double flip keeps it even.
	overallMismatch := (bits.OnesCount64(w.Data)+bits.OnesCount8(w.Check))&1 != 0

	switch {
	case synd == 0 && !overallMismatch:
		return w.Data, OK
	case synd == 0 && overallMismatch:
		// The overall parity bit itself flipped; data is intact.
		return w.Data, CorrectedSBE
	case synd != 0 && overallMismatch:
		// Single-bit error at codeword position synd.
		if isPowerOfTwo(synd) {
			// A Hamming parity bit flipped; data intact.
			return w.Data, CorrectedSBE
		}
		for i := 0; i < 64; i++ {
			if dataPosition[i] == synd {
				return w.Data ^ (1 << uint(i)), CorrectedSBE
			}
		}
		// Syndrome points outside the codeword: alias of a multi-bit
		// error pattern.
		return w.Data, DetectedMBE
	default: // synd != 0, overall parity consistent => double-bit error
		return w.Data, DetectedMBE
	}
}

// FlipDataBit returns a copy of w with data bit i flipped (error injection).
func FlipDataBit(w Word72, i int) Word72 {
	w.Data ^= 1 << uint(i)
	return w
}
