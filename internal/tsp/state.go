// Chip state capture and restore for checkpointing.
//
// A chip's execution state is a pure function of its program and inputs
// (the machine has no hidden nondeterminism), so the state below is
// complete: restoring it into a chip loaded with the same program resumes
// execution exactly where the original left off. Snapshots are taken only
// at clean points — no pending fault — because a faulted attempt is
// abandoned for replay, never checkpointed.
//
// A capture copies only the state that exists. Most stream registers and
// nearly every weight row hold zero bits, so a ChipState lists the nonzero
// registers and rows behind a mask of which ones they are, and a restore
// zeroes the rest. Its SRAM part reuses the previous capture's encoding of
// every vector the chip did not write since.
package tsp

import (
	"math/bits"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

// The stream mask is one bit per register.
const _ = uint64(1) << (NumStreams - 1)

// UnitState is one functional unit's ICU position and timing cursor.
type UnitState struct {
	PC     int
	Cursor int64
	Parked bool
	Halted bool
	Busy   int64
	Stall  int64
}

// ChipState is one chip's state mid-execution, in sparse form. Bit i of
// StreamMask is set when stream register i holds a nonzero bit, and
// Streams lists those registers in ascending order. Bit r%64 of
// RowMask[r/64] is set when weight row r holds a nonzero bit, and Rows
// lists those rows in ascending order; RowMask has no bit at or past
// WeightRows. Every register and row a mask leaves out is all zero.
// Zero means zero bits: a row of -0.0 or of NaN payloads is nonzero.
type ChipState struct {
	StreamMask uint64
	Streams    []Vector
	RowMask    [(WeightRows + 63) / 64]uint64
	Rows       [][FloatLanes]float32
	Units      [isa.NumUnits]UnitState
	Mem        mem.State
}

// zeroVector is the all-zero vector the capture compares against. It is
// never written.
var zeroVector Vector

// zeroRow reports whether every bit of a weight row is zero. It compares
// the row's bytes, not its floats, so -0.0 and NaN count as nonzero.
func zeroRow(r *[FloatLanes]float32) bool {
	return *(*Vector)(unsafe.Pointer(r)) == zeroVector
}

// CaptureState captures the chip's state into s in place, reusing s's
// Streams and Rows slices. s must be the zero ChipState (a full capture)
// or hold this chip's immediately preceding capture: the SRAM's
// dirty-page tracking then reuses s's encoding of every vector untouched
// since (mem.StateDelta), so steady-cadence captures pay only for the
// memory the chip wrote since last time. Each call resets the dirty
// baseline. It tests only the weight rows a LoadWeights or SetState may
// have left nonzero, so a chip that loads no weights scans none. The chip
// must not be faulted: a fault means the run is being abandoned, and the
// snapshot would bake the poisoned state into every restore.
func (c *Chip) CaptureState(s *ChipState) {
	if c.fault != nil {
		panic("tsp: CaptureState on a faulted chip")
	}
	s.StreamMask = 0
	s.Streams = s.Streams[:0]
	for i := range c.streams {
		// Materialize lane-cached registers so the snapshot carries the
		// architectural bytes — the determinism boundary.
		if v := c.streamBytes(i); *v != zeroVector {
			s.StreamMask |= 1 << i
			s.Streams = append(s.Streams, *v)
		}
	}
	// Only the rows wmask names can be nonzero. A named row that holds
	// zero bits again leaves the mask, so the next capture skips it.
	clear(s.RowMask[:])
	s.Rows = s.Rows[:0]
	for w, m := range c.wmask {
		for ; m != 0; m &= m - 1 {
			r := w*64 + bits.TrailingZeros64(m)
			if !zeroRow(&c.weights[r]) {
				s.RowMask[w] |= 1 << (r % 64)
				s.Rows = append(s.Rows, c.weights[r])
			}
		}
	}
	c.wmask = s.RowMask
	s.Mem = c.Mem.StateDelta(&s.Mem)
	for u := range s.Units {
		s.Units[u] = UnitState{
			PC:     c.pc[u],
			Cursor: c.cursor[u],
			Parked: c.parked[u],
			Halted: c.halted[u],
			Busy:   c.busy[u],
			Stall:  c.stall[u],
		}
	}
}

// SetState restores a captured state into the chip: every register and
// weight row s's masks leave out is zeroed. s's Streams and Rows must
// hold one entry per mask bit. The chip must be loaded with the same
// program the snapshot was taken under; the deskew oracle
// (SetDeskewDelta), recorder attachment, and C2C binding are
// construction-time wiring and are left untouched.
func (c *Chip) SetState(s *ChipState) {
	c.streams = [NumStreams]Vector{}
	k := 0
	for m := s.StreamMask; m != 0; m &= m - 1 {
		c.streams[bits.TrailingZeros64(m)] = s.Streams[k]
		k++
	}
	// Every row outside wmask is zero already: clear the rows it names,
	// then write s's.
	for w, m := range c.wmask {
		for ; m != 0; m &= m - 1 {
			c.weights[w*64+bits.TrailingZeros64(m)] = [FloatLanes]float32{}
		}
	}
	c.wmask = s.RowMask
	k = 0
	for w, m := range s.RowMask {
		for ; m != 0; m &= m - 1 {
			c.weights[w*64+bits.TrailingZeros64(m)] = s.Rows[k]
			k++
		}
	}
	for i := range c.streams {
		c.byteOK[i] = true
		c.laneOK[i] = false
		// Drop any cached nonzero-top: New() marks every register nzOK
		// with nzTop=0, and the restored bytes are authoritative now.
		c.nzOK[i] = false
	}
	c.Mem.SetState(s.Mem)
	for u := range s.Units {
		c.pc[u] = s.Units[u].PC
		c.cursor[u] = s.Units[u].Cursor
		c.parked[u] = s.Units[u].Parked
		c.halted[u] = s.Units[u].Halted
		c.busy[u] = s.Units[u].Busy
		c.stall[u] = s.Units[u].Stall
	}
	c.fault = nil
}
