// Chip state capture and restore for checkpointing.
//
// A chip's execution state is a pure function of its program and inputs
// (the machine has no hidden nondeterminism), so the state below is
// complete: restoring it into a chip loaded with the same program resumes
// execution exactly where the original left off. Snapshots are taken only
// at clean points — no pending fault — because a faulted attempt is
// abandoned for replay, never checkpointed.
//
// A capture copies nothing it does not have to: a ChipState points at the
// chip's own register file and weight matrix instead of holding copies,
// and its SRAM part reuses the previous capture's encoding of every vector
// the chip did not write since. The checkpoint encoder then copies the
// arrays once, into the blob. A restore copies them into the chip.
package tsp

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// UnitState is one functional unit's ICU position and timing cursor.
type UnitState struct {
	PC     int
	Cursor int64
	Parked bool
	Halted bool
	Busy   int64
	Stall  int64
}

// ChipState is one chip's state mid-execution. Streams and Weights point
// at a register file and a weight matrix: CaptureState points them at the
// chip's own arrays, Decode at arrays of its own.
type ChipState struct {
	Streams *[NumStreams]Vector
	Weights *[WeightRows][FloatLanes]float32
	Units   [isa.NumUnits]UnitState
	Mem     mem.State
}

// CaptureState captures the chip's state into s in place. Streams and
// Weights point at the chip's own arrays, so s reads the chip as it is
// until the chip runs again: encode it before then. s must be the zero
// ChipState (a full capture) or hold this chip's immediately preceding
// capture: the SRAM's dirty-page tracking then reuses s's encoding of
// every vector untouched since (mem.StateDelta), so steady-cadence
// captures pay only for the memory the chip wrote since last time. Each
// call resets the dirty baseline. The chip must not be faulted: a fault
// means the run is being abandoned, and the snapshot would bake the
// poisoned state into every restore.
func (c *Chip) CaptureState(s *ChipState) {
	if c.fault != nil {
		panic("tsp: CaptureState on a faulted chip")
	}
	for i := range c.streams {
		// Materialize lane-cached registers so the snapshot carries the
		// architectural bytes — the determinism boundary.
		c.streamBytes(i)
	}
	s.Streams = &c.streams
	s.Weights = &c.Weights
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

// SetState restores a captured state into the chip. The chip must be
// loaded with the same program the snapshot was taken under; the deskew
// oracle (SetDeskewDelta), recorder attachment, and C2C binding are
// construction-time wiring and are left untouched.
func (c *Chip) SetState(s *ChipState) {
	c.streams = *s.Streams
	c.Weights = *s.Weights
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
