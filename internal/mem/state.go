// SRAM state capture and restore for checkpointing.
//
// A snapshot carries the raw SECDED words of every resident vector, not
// their decoded payloads: reading through Read would scrub corrected
// single-bit errors and bump the error tallies, so the restored memory
// would diverge from the original on the very next access. Vectors are
// emitted in ascending linear-index order so the captured form is
// deterministic regardless of map iteration order.
package mem

import (
	"sort"

	"repro/internal/ecc"
)

// VectorState is one resident vector's raw ECC words.
type VectorState struct {
	Linear int
	Words  [VectorBytes / 8]ecc.Word72
}

// State is a point-in-time copy of one chip's SRAM.
type State struct {
	CorrectedSBEs int64
	DetectedMBEs  int64
	Vectors       []VectorState
}

// StateDelta captures the memory's resident vectors and error tallies,
// reusing the previous capture's encoding for every vector that has not
// been touched since — the SRAM-side half of the micro-snapshot fast
// path. The first call (or the first after SetState) arms dirty-page
// tracking and performs a full capture; subsequent calls only re-encode
// vectors the dirty set names. The returned State is byte-for-byte
// identical to a full capture, so delta-built checkpoints encode to the
// same blob as full-capture ones.
func (m *SRAM) StateDelta(prev *State) State {
	s := m.capture(prev)
	m.track = true
	if m.dirty == nil {
		m.dirty = make(map[int]struct{})
	} else {
		clear(m.dirty)
	}
	return s
}

// capture builds the point-in-time State. When prev is non-nil and
// tracking is armed, clean-since-prev vectors are copied from prev instead
// of re-encoded; Encode is pure, so the reused words are bit-identical to
// a fresh encoding of the unchanged vector.
func (m *SRAM) capture(prev *State) State {
	s := State{
		CorrectedSBEs: m.CorrectedSBEs,
		DetectedMBEs:  m.DetectedMBEs,
		Vectors:       make([]VectorState, 0, len(m.vecs)),
	}
	usePrev := prev != nil && m.track
	for lin, v := range m.vecs {
		if usePrev {
			if _, touched := m.dirty[lin]; !touched {
				i := sort.Search(len(prev.Vectors), func(i int) bool { return prev.Vectors[i].Linear >= lin })
				if i < len(prev.Vectors) && prev.Vectors[i].Linear == lin {
					s.Vectors = append(s.Vectors, prev.Vectors[i])
					continue
				}
			}
		}
		vs := VectorState{Linear: lin}
		if v.words != nil {
			vs.Words = *v.words
		} else {
			// Clean vector: encode the raw bytes on demand. Encode is a
			// pure function, so the captured words are bit-identical to
			// what the eager path would have stored at write time.
			tmp := storedVector{raw: v.raw}
			tmp.encode()
			vs.Words = *tmp.words
		}
		s.Vectors = append(s.Vectors, vs)
	}
	sort.Slice(s.Vectors, func(i, j int) bool { return s.Vectors[i].Linear < s.Vectors[j].Linear })
	return s
}

// SetState replaces the memory's contents with a captured state. Any
// armed dirty-page tracking is reset: a wholesale replacement invalidates
// the previous capture, so the next StateDelta performs a full capture.
func (m *SRAM) SetState(s State) {
	m.CorrectedSBEs = s.CorrectedSBEs
	m.DetectedMBEs = s.DetectedMBEs
	m.track = false
	m.dirty = nil
	m.vecs = make(map[int]*storedVector, len(s.Vectors))
	for _, vs := range s.Vectors {
		// Restored vectors start word-authoritative (the snapshot may
		// carry latent upsets); the first fully clean read promotes them
		// back to the cheap raw form with identical observables.
		words := vs.Words
		m.vecs[vs.Linear] = &storedVector{words: &words}
	}
}
