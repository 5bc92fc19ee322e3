// Differential test of the weight-row mask: CaptureState visits only the
// rows LoadWeights or SetState may have left nonzero, so it must find
// exactly what a scan of every row finds.
package tsp

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/isa"
)

// fullScan is the capture of c's weight rows that tests all WeightRows
// rows: the mask of those holding a nonzero bit, and their contents.
func fullScan(c *Chip) (mask [(WeightRows + 63) / 64]uint64, rows [][FloatLanes]float32) {
	for r := range c.weights {
		for _, f := range c.weights[r] {
			if math.Float32bits(f) != 0 {
				mask[r/64] |= 1 << (r % 64)
				rows = append(rows, c.weights[r])
				break
			}
		}
	}
	return mask, rows
}

// sameRowBits reports whether two row lists hold the same bits.
func sameRowBits(a, b [][FloatLanes]float32) bool {
	return slices.EqualFunc(a, b, func(x, y [FloatLanes]float32) bool {
		for j := range x {
			if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
				return false
			}
		}
		return true
	})
}

// maskVector returns a source register value of one of the shapes the
// mask must get right: all zero bits, all -0.0, NaN payloads among zero
// lanes, one nonzero lane, or hostile values in every lane.
func maskVector(r *diffRNG) Vector {
	var v Vector
	switch r.intn(5) {
	case 0: // all zero: the row goes back to zero
	case 1:
		for j := 0; j < FloatLanes; j++ {
			binary.LittleEndian.PutUint32(v[4*j:], 0x80000000)
		}
	case 2:
		for n := 1 + r.intn(3); n > 0; n-- {
			nan := 0x7f800000 | uint32(r.next())&0x807fffff | 1
			binary.LittleEndian.PutUint32(v[4*r.intn(FloatLanes):], nan)
		}
	case 3:
		binary.LittleEndian.PutUint32(v[4*r.intn(FloatLanes):], hostileBits(r)|1)
	default:
		v = hostileVector(r)
	}
	return v
}

// TestWeightMaskCaptureMatchesFullScan runs seeded programs of LoadWeights
// that write zero rows, -0.0 rows, NaN payloads and nonzero rows over
// each other (rows are drawn mostly from a few, and B past WeightRows
// wraps), with an occasional SetState back to an earlier capture. After
// each step the capture, reused in place as the runtime's baseline is,
// must equal the full scan, and restoring it into a chip whose every row
// is nonzero must leave the same weights and capture back.
func TestWeightMaskCaptureMatchesFullScan(t *testing.T) {
	// dense is a capture whose every row is nonzero, loaded by LoadWeights.
	var dense ChipState
	full := New(0, &isa.Program{}, nil)
	r := &diffRNG{}
	for row := 0; row < WeightRows; row++ {
		v := hostileVector(r)
		v[0] |= 1
		full.SetStream(1, v)
		full.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: 1, B: uint16(row)}, 0)
	}
	full.CaptureState(&dense)
	if len(dense.Rows) != WeightRows {
		t.Fatalf("dense capture has %d rows, want %d", len(dense.Rows), WeightRows)
	}

	rewrites := 0
	for seed := uint64(1); seed <= 16; seed++ {
		r := &diffRNG{s: seed}
		c := New(0, &isa.Program{}, nil)
		var st ChipState
		var saved []ChipState
		for step := 0; step < 200; step++ {
			if len(saved) > 0 && r.intn(16) == 0 {
				c.SetState(&saved[r.intn(len(saved))])
			} else {
				src := r.intn(NumStreams)
				c.SetStream(src, maskVector(r))
				row := r.intn(2 * WeightRows)
				if r.intn(2) == 0 {
					row = r.intn(4) * WeightRows / 4
				}
				before := c.weights[row%WeightRows]
				c.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: uint16(src), B: uint16(row)}, 0)
				if !zeroRow(&before) && zeroRow(&c.weights[row%WeightRows]) {
					rewrites++
				}
			}
			c.CaptureState(&st)
			mask, rows := fullScan(c)
			if st.RowMask != mask || !sameRowBits(st.Rows, rows) {
				t.Fatalf("seed %d step %d: capture names rows %x, the full scan %x", seed, step, st.RowMask, mask)
			}

			d := New(0, &isa.Program{}, nil)
			d.SetState(&dense)
			d.SetState(&st)
			var back ChipState
			d.CaptureState(&back)
			if back.RowMask != st.RowMask || !sameRowBits(back.Rows, st.Rows) {
				t.Fatalf("seed %d step %d: SetState then CaptureState does not round-trip", seed, step)
			}
			if dm, drows := fullScan(d); dm != mask || !sameRowBits(drows, rows) {
				t.Fatalf("seed %d step %d: the restored chip holds other weights", seed, step)
			}
			if r.intn(8) == 0 {
				keep := st
				keep.Streams = slices.Clone(st.Streams)
				keep.Rows = slices.Clone(st.Rows)
				saved = append(saved, keep)
			}
		}
	}
	if rewrites == 0 {
		t.Error("no step wrote a nonzero row back to zero")
	}
}
