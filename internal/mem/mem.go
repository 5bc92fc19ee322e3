// Package mem models the TSP's on-chip SRAM, each device's share of the
// system's global shared address space (paper Fig 3).
//
// Each chip holds 220 MiB of SRAM organized as 2 hemispheres × 44 slices ×
// 2 banks × 4096 addresses, where each address names one 320-byte vector.
// The system's global memory is this SRAM replicated per device and
// addressed as a rank-5 tensor [Device, Hemisphere, Slice, Bank, Offset]:
// logically shared, physically distributed, with no coherence protocol —
// the compiler's total ordering of sends and receives *is* the consistency
// model.
//
// Every 64-bit word is SECDED-protected (§4.5): single-bit upsets are
// corrected on read, double-bit upsets are detected and poison the access.
package mem

import (
	"fmt"

	"repro/internal/ecc"
)

// Geometry constants (Fig 3).
const (
	Hemispheres    = 2
	Slices         = 44 // per hemisphere
	Banks          = 2  // per slice
	Addresses      = 4096
	VectorBytes    = 320
	VectorsPerChip = Hemispheres * Slices * Banks * Addresses
	// ChipBytes is 220 MiB exactly.
	ChipBytes = VectorsPerChip * VectorBytes
)

// Addr names one vector within a chip.
type Addr struct {
	Hemisphere int
	Slice      int
	Bank       int
	Offset     int
}

// Valid reports whether every coordinate is in range.
func (a Addr) Valid() bool {
	return a.Hemisphere >= 0 && a.Hemisphere < Hemispheres &&
		a.Slice >= 0 && a.Slice < Slices &&
		a.Bank >= 0 && a.Bank < Banks &&
		a.Offset >= 0 && a.Offset < Addresses
}

// Linear returns the flat vector index of the address.
func (a Addr) Linear() int {
	return ((a.Hemisphere*Slices+a.Slice)*Banks+a.Bank)*Addresses + a.Offset
}

// AddrOf is the inverse of Linear.
func AddrOf(linear int) Addr {
	if linear < 0 || linear >= VectorsPerChip {
		panic(fmt.Sprintf("mem: linear index %d out of range", linear))
	}
	off := linear % Addresses
	linear /= Addresses
	bank := linear % Banks
	linear /= Banks
	slice := linear % Slices
	hemi := linear / Slices
	return Addr{Hemisphere: hemi, Slice: slice, Bank: bank, Offset: off}
}

func (a Addr) String() string {
	return fmt.Sprintf("[h%d s%d b%d +%d]", a.Hemisphere, a.Slice, a.Bank, a.Offset)
}

// storedVector is one SECDED-protected 320-byte vector.
//
// The ECC words are materialized lazily: a freshly written vector is
// "clean" (words == nil) and its raw bytes are authoritative — encoding
// and immediately decoding 40 SECDED words per access bought nothing,
// since decoding a just-encoded word can never correct or detect
// anything. The words are materialized only when something can actually
// perturb them (FlipBit) or must observe them (State capture), and a
// perturbed vector stays word-authoritative until a fully clean read
// promotes it back. Every observable — read data, error tallies, scrub
// behavior, captured state bytes — is identical to the eager encoding.
type storedVector struct {
	raw   [VectorBytes]byte
	words *[VectorBytes / 8]ecc.Word72
}

// encode materializes the vector's ECC words from its raw bytes.
func (v *storedVector) encode() {
	var words [VectorBytes / 8]ecc.Word72
	for w := range words {
		var d uint64
		for b := 0; b < 8; b++ {
			d |= uint64(v.raw[w*8+b]) << uint(8*b)
		}
		words[w] = ecc.Encode(d)
	}
	v.words = &words
}

// SRAM is one chip's memory. Vectors are allocated lazily: a full chip is
// 220 MiB and large simulated systems would not fit in host memory eagerly.
// Unwritten vectors read as zero.
type SRAM struct {
	vecs map[int]*storedVector
	// CorrectedSBEs counts single-bit errors corrected on read.
	CorrectedSBEs int64
	// DetectedMBEs counts uncorrectable errors surfaced on read.
	DetectedMBEs int64
	// track arms dirty-page tracking: while on, every mutation records the
	// vector's linear index in dirty so the next StateDelta can reuse the
	// previous capture's encoding for untouched vectors. Armed by the first
	// StateDelta; disarmed by SetState (a wholesale replacement invalidates
	// any previous capture).
	track bool
	dirty map[int]struct{}
}

// touch records a mutation of the vector at linear index lin while
// dirty-page tracking is armed. Callers must invoke it for every path that
// can change a vector's captured ECC words: Write (raw bytes replaced),
// FlipBit (a word perturbed), and the word-authoritative read path (a
// scrub rewrites corrected words in place).
func (m *SRAM) touch(lin int) {
	if m.track {
		m.dirty[lin] = struct{}{}
	}
}

// NewSRAM returns an empty (all-zero) chip memory.
func NewSRAM() *SRAM { return &SRAM{vecs: make(map[int]*storedVector)} }

// Write stores a 320-byte vector at addr. The vector becomes clean: raw
// bytes authoritative, ECC words deferred until something can disturb them.
func (m *SRAM) Write(addr Addr, data []byte) {
	if !addr.Valid() {
		panic(fmt.Sprintf("mem: write to invalid address %v", addr))
	}
	if len(data) != VectorBytes {
		panic(fmt.Sprintf("mem: vector must be %d bytes, got %d", VectorBytes, len(data)))
	}
	lin := addr.Linear()
	v, present := m.vecs[lin]
	if !present {
		v = &storedVector{}
		m.vecs[lin] = v
	}
	copy(v.raw[:], data)
	v.words = nil
	m.touch(lin)
}

// Read fetches the vector at addr. ok is false when a detected-uncorrectable
// error poisons the data; single-bit errors are corrected transparently.
func (m *SRAM) Read(addr Addr) (data []byte, ok bool) {
	data = make([]byte, VectorBytes)
	ok = m.ReadInto(addr, data)
	return data, ok
}

// ReadInto fetches the vector at addr into dst (which must be 320 bytes)
// without allocating. ok is false when a detected-uncorrectable error
// poisons the access; dst is then left untouched so the caller's register
// state stays coherent while the fault abandons the run. Single-bit errors
// are corrected transparently (and scrubbed in place).
func (m *SRAM) ReadInto(addr Addr, dst []byte) (ok bool) {
	if !addr.Valid() {
		panic(fmt.Sprintf("mem: read from invalid address %v", addr))
	}
	if len(dst) != VectorBytes {
		panic(fmt.Sprintf("mem: vector must be %d bytes, got %d", VectorBytes, len(dst)))
	}
	lin := addr.Linear()
	v, present := m.vecs[lin]
	if !present {
		for i := range dst {
			dst[i] = 0
		}
		return true
	}
	if v.words == nil {
		// Clean vector: decoding freshly encoded words can never correct
		// or detect anything, so the raw bytes are the decode result and
		// no tally moves — identical observables, none of the work.
		copy(dst, v.raw[:])
		return true
	}
	// Word-authoritative read: a scrub may rewrite corrected words in
	// place, changing what a capture would encode.
	m.touch(lin)
	var data [VectorBytes]byte
	ok = true
	for w := range v.words {
		d, res := ecc.Decode(v.words[w])
		switch res {
		case ecc.CorrectedSBE:
			m.CorrectedSBEs++
			// Scrub: rewrite the corrected word.
			v.words[w] = ecc.Encode(d)
		case ecc.DetectedMBE:
			m.DetectedMBEs++
			ok = false
		}
		for b := 0; b < 8; b++ {
			data[w*8+b] = byte(d >> uint(8*b))
		}
	}
	if !ok {
		return false
	}
	// Fully clean decode (after any scrubbing): the words are now exactly
	// Encode(data) for every word, so the vector can drop back to the
	// cheap clean representation.
	v.raw = data
	v.words = nil
	copy(dst, data[:])
	return true
}

// FlipBit injects a single-bit upset into the stored vector at addr; bit
// indexes the vector's 2560 data bits. Writing to an unwritten vector
// materializes it first (as zeros) so the upset has substance to corrupt.
func (m *SRAM) FlipBit(addr Addr, bit int) {
	if bit < 0 || bit >= VectorBytes*8 {
		panic("mem: bit index out of range")
	}
	lin := addr.Linear()
	v, present := m.vecs[lin]
	if !present {
		v = &storedVector{}
		m.vecs[lin] = v
	}
	if v.words == nil {
		v.encode()
	}
	v.words[bit/64] = ecc.FlipDataBit(v.words[bit/64], bit%64)
	m.touch(lin)
}
