package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/tsp"
)

// allRows is the row mask that names every weight row.
var allRows = [len(tsp.ChipState{}.RowMask)]uint64{^uint64(0), ^uint64(0), 1<<(tsp.WeightRows-128) - 1}

// denseSnapshot is testSnapshot with every stream register and weight row
// of its chip nonzero.
func denseSnapshot() *Snapshot {
	s := testSnapshot()
	c := &s.Chips[0]
	c.StreamMask = ^uint64(0)
	c.Streams = make([]tsp.Vector, tsp.NumStreams)
	for i := range c.Streams {
		for k := range c.Streams[i] {
			c.Streams[i][k] = byte(i+k) | 1
		}
	}
	c.RowMask = allRows
	c.Rows = make([][tsp.FloatLanes]float32, tsp.WeightRows)
	for r := range c.Rows {
		for j := range c.Rows[r] {
			c.Rows[r][j] = float32(r*tsp.FloatLanes + j + 1)
		}
	}
	return s
}

// fillDense writes every stream register and weight row of c.
func fillDense(c *tsp.Chip) {
	setWeights(c, func(r, j int) float32 { return float32(r-j) / 8 })
	for i := 0; i < tsp.NumStreams; i++ {
		var v tsp.Vector
		for k := range v {
			v[k] = byte(i*7+k) | 1
		}
		c.SetStream(i, v)
	}
}

// setWeights restores into c a state whose weight rows hold w(r, j) and
// whose every other register, cursor and memory word is zero. The
// restored mask names every row that holds a nonzero bit.
func setWeights(c *tsp.Chip, w func(r, j int) float32) {
	var st tsp.ChipState
	for r := 0; r < tsp.WeightRows; r++ {
		var row [tsp.FloatLanes]float32
		nonzero := false
		for j := range row {
			row[j] = w(r, j)
			nonzero = nonzero || math.Float32bits(row[j]) != 0
		}
		if nonzero {
			st.RowMask[r/64] |= 1 << (r % 64)
			st.Rows = append(st.Rows, row)
		}
	}
	c.SetState(&st)
}

// weightsOf reads c's weight matrix back through a full capture.
func weightsOf(c *tsp.Chip) *[tsp.WeightRows][tsp.FloatLanes]float32 {
	var st tsp.ChipState
	c.CaptureState(&st)
	w := new([tsp.WeightRows][tsp.FloatLanes]float32)
	k := 0
	for r := range w {
		if st.RowMask[r/64]>>(r%64)&1 != 0 {
			w[r] = st.Rows[k]
			k++
		}
	}
	return w
}

// sameWeights reports whether two weight matrices hold the same bits.
func sameWeights(a, b *[tsp.WeightRows][tsp.FloatLanes]float32) bool {
	for r := range a {
		for j := range a[r] {
			if math.Float32bits(a[r][j]) != math.Float32bits(b[r][j]) {
				return false
			}
		}
	}
	return true
}

// TestChipStateSparseRoundTrip: capture → Encode → Decode → SetState →
// capture reproduces each chip bit for bit and re-encodes to the same
// blob, for an all-zero chip, a fully dense one, one whose rows hold only
// -0.0 and one whose registers and rows hold NaN payloads. A row of -0.0
// or NaN bits is nonzero state, so the masks must name it. Each restore
// lands on a chip that already holds dense state, so SetState must zero
// every register and row the masks leave out.
func TestChipStateSparseRoundTrip(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range []struct {
		name          string
		fill          func(c *tsp.Chip)
		streams, rows int
	}{
		{"zero", func(*tsp.Chip) {}, 0, 0},
		{"dense", fillDense, tsp.NumStreams, tsp.WeightRows},
		{"negative-zero-rows", func(c *tsp.Chip) {
			setWeights(c, func(int, int) float32 { return negZero })
		}, 0, tsp.WeightRows},
		{"nan-payloads", func(c *tsp.Chip) {
			nans := []uint32{0x7f800001, 0x7fbfffff, 0xff800123, 0x7fc00000 | 0x2a, 0xffffffff}
			setWeights(c, func(r, j int) float32 {
				for i, bits := range nans {
					if r == i*31 && j == i*17%tsp.FloatLanes {
						return math.Float32frombits(bits)
					}
				}
				return 0
			})
			for i, bits := range nans {
				var v tsp.Vector
				binary.LittleEndian.PutUint32(v[4*(i*9%tsp.FloatLanes):], bits)
				c.SetStream(i*13, v)
			}
		}, 5, 5},
	} {
		prog := &isa.Program{}
		src := tsp.New(0, prog, nil)
		tc.fill(src)
		var st tsp.ChipState
		src.CaptureState(&st)
		if got := bits.OnesCount64(st.StreamMask); got != tc.streams || len(st.Streams) != got {
			t.Errorf("%s: stream mask names %d registers with %d listed, want %d", tc.name, got, len(st.Streams), tc.streams)
		}
		if got := rowCount(&st.RowMask); got != tc.rows || len(st.Rows) != got {
			t.Errorf("%s: row mask names %d rows with %d listed, want %d", tc.name, got, len(st.Rows), tc.rows)
		}
		blob := Encode(&Snapshot{Chips: []tsp.ChipState{st}})
		snap, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		dst := tsp.New(0, prog, nil)
		fillDense(dst)
		dst.SetState(&snap.Chips[0])
		if dst.Streams() != src.Streams() {
			t.Errorf("%s: restored stream registers differ", tc.name)
		}
		if !sameWeights(weightsOf(dst), weightsOf(src)) {
			t.Errorf("%s: restored weights differ", tc.name)
		}
		var again tsp.ChipState
		dst.CaptureState(&again)
		if !bytes.Equal(Encode(&Snapshot{Chips: []tsp.ChipState{again}}), blob) {
			t.Errorf("%s: the restored chip's capture encodes differently", tc.name)
		}
	}
}

// TestCheckpointSparseChipRejected: chip sections Encode never writes
// fail Decode with ErrCorrupt — a register or row the mask names that is
// all zero, a row mask bit at or past WeightRows, and a mask naming more
// entries than the bytes left could hold.
func TestCheckpointSparseChipRejected(t *testing.T) {
	var nonzero [tsp.FloatLanes]float32
	nonzero[0] = 1
	blobs := map[string][]byte{}
	for name, edit := range map[string]func(c *tsp.ChipState){
		"zero-register": func(c *tsp.ChipState) {
			c.StreamMask |= 1 << 5
			c.Streams = append(c.Streams, tsp.Vector{})
		},
		"zero-row": func(c *tsp.ChipState) {
			c.RowMask[1] |= 1
			c.Rows = append(c.Rows, [tsp.FloatLanes]float32{})
		},
		"row-past-depth": func(c *tsp.ChipState) {
			c.RowMask[len(c.RowMask)-1] |= 1 << (tsp.WeightRows % 64)
			c.Rows = append(c.Rows, nonzero)
		},
	} {
		s := testSnapshot()
		edit(&s.Chips[0])
		blobs[name] = Encode(s)
	}
	for name, blob := range maskBlobs(300) {
		blobs[name] = blob
	}
	want := map[string]string{
		"zero-register":     "all-zero stream register",
		"zero-row":          "all-zero weight row",
		"row-past-depth":    "at or past 160",
		"stream-mask-short": "implausible element count 64",
		"row-mask-short":    "implausible element count 160",
	}
	for name, blob := range blobs {
		_, err := Decode(blob)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: want ErrCorrupt mentioning %q, got %v", name, want[name], err)
		}
	}
}

// maskBlobs returns two blobs whose one chip section opens with a full
// mask, of stream registers or of weight rows, followed by room zero
// bytes. With room below one entry every count is implausible; with room
// for every entry the first entry read is all zero.
func maskBlobs(room int) map[string][]byte {
	le := binary.LittleEndian
	chip := le.AppendUint32(make([]byte, clusterFixed), 1)
	streams := le.AppendUint64(bytes.Clone(chip), ^uint64(0))
	rows := le.AppendUint64(bytes.Clone(chip), 0)
	for _, w := range allRows {
		rows = le.AppendUint64(rows, w)
	}
	suffix := "-full"
	if room < tsp.VectorBytes {
		suffix = "-short"
	}
	return map[string][]byte{
		"stream-mask" + suffix: frame(append(streams, make([]byte, room)...)),
		"row-mask" + suffix:    frame(append(rows, make([]byte, room)...)),
	}
}
