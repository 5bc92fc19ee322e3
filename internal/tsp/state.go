// Chip state capture and restore for checkpointing.
//
// A chip's execution state is a pure function of its program and inputs
// (the machine has no hidden nondeterminism), so the state below is
// complete: restoring it into a chip loaded with the same program resumes
// execution exactly where the original left off. Snapshots are taken only
// at clean points — no pending fault — because a faulted attempt is
// abandoned for replay, never checkpointed.
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

// ChipState is a point-in-time copy of one chip mid-execution.
type ChipState struct {
	Streams [NumStreams]Vector
	Weights [WeightRows][FloatLanes]float32
	Units   [isa.NumUnits]UnitState
	Mem     mem.State
}

// StateWithPrev captures the chip's architectural and micro-architectural
// state through the micro-snapshot fast path: the SRAM's dirty-page
// tracking reuses prev's encoding for every vector untouched since the
// previous capture (mem.StateDelta), so steady-cadence captures pay only
// for the memory the chip actually wrote since last time. prev must be the
// immediately preceding StateWithPrev capture of this same chip (or nil to
// start a delta chain with a full capture); each call resets the dirty
// baseline. The chip must not be faulted: a fault means the run is being
// abandoned, and the snapshot would bake the poisoned state into every
// restore.
func (c *Chip) StateWithPrev(prev *ChipState) ChipState {
	if c.fault != nil {
		panic("tsp: StateWithPrev on a faulted chip")
	}
	var pm *mem.State
	if prev != nil {
		pm = &prev.Mem
	}
	s := ChipState{Weights: c.Weights, Mem: c.Mem.StateDelta(pm)}
	for i := range s.Streams {
		// Materialize lane-cached registers so the snapshot carries the
		// architectural bytes — the determinism boundary.
		s.Streams[i] = *c.streamBytes(i)
	}
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
	return s
}

// SetState restores a captured state into the chip. The chip must be
// loaded with the same program the snapshot was taken under; the deskew
// oracle (SetDeskewDelta), recorder attachment, and C2C binding are
// construction-time wiring and are left untouched.
func (c *Chip) SetState(s ChipState) {
	c.streams = s.Streams
	for i := range c.streams {
		c.byteOK[i] = true
		c.laneOK[i] = false
		// Drop any cached nonzero-top: New() marks every register nzOK
		// with nzTop=0, and the restored bytes are authoritative now.
		c.nzOK[i] = false
	}
	c.Weights = s.Weights
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
