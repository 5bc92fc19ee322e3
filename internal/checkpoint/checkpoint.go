// Package checkpoint serializes epoch-barrier snapshots of a cluster
// mid-execution (§4.5's determinism dividend): because the machine's state
// at any cycle is a pure function of the program, a snapshot taken at a
// heap barrier is a complete restart point, and the recovery ladder can
// resume a replay from the last good barrier instead of cycle 0.
//
// The format is versioned, byte-stable, and checksummed:
//
//	"TSPCKPT\x01" | u32 version | u64 payloadLen | payload | u32 CRC32(payload)
//
// with every integer little-endian, every map emitted in sorted key
// order, and every float carried as its IEEE-754 bit pattern. Two
// snapshots of identical cluster state are identical byte strings — the
// property the restore-equivalence tests compare directly. The CRC
// (IEEE 802.3, via hash/crc32) guards the payload: a corrupted snapshot
// fails Decode with an error wrapping ErrCorrupt, and the ladder's
// corrupted-checkpoint rung falls back to the next older snapshot or to
// cycle 0 — never a panic, never a wrong answer.
//
// The payload has two sections. The cluster section carries the machine:
// per-chip stream registers, MXM weight rows, ICU positions and cursors,
// raw SECDED memory words, mailbox queues (the only in-flight link state
// at a window barrier — pending sends are always flushed before capture),
// per-link error-model state including RNG cursors, FEC tallies, and the
// repaired set. The obs section carries the recorder registry (counters,
// gauges, histograms, trace events, name tables) so a restored run's
// dumps are byte-identical to the straight run's. The sections are split because
// the `checkpoint.bytes` counter must itself be inside the obs section:
// it is stamped with the cluster section's length (ClusterLen) before the
// obs view is taken, in both the straight and the restored run.
//
// A chip section carries only the registers and weight rows that hold a
// nonzero bit, each behind a mask of which ones they are:
//
//	u64 stream mask | 320 B per set bit | 3 × u64 row mask | 320 B per set bit | units | memory
//
// Bit i of the stream mask stands for stream register i; bit r%64 of row
// mask word r/64 for weight row r, and no bit at or past tsp.WeightRows is
// set. A register or row the mask leaves out is all zero, and one it
// names never is, so each state has one encoding. Every blob is still
// self-contained: any capture restores on its own.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"repro/internal/c2c"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Version is the current format version. Version 3 carries each chip's
// stream registers and weight rows sparsely, behind masks (see the
// package comment). Version 2 added per-unit stall cycles to the cluster
// section and time series (plus the sampling cadence) to the obs section.
// Decode reads the current version only.
const Version = 3

// magic opens every checkpoint blob.
const magic = "TSPCKPT\x01"

// ErrCorrupt is wrapped by every Decode failure — truncation, bad magic,
// unknown version, checksum mismatch, or content Encode never writes —
// so callers can treat all of them as "this snapshot is unusable, fall
// back".
var ErrCorrupt = errors.New("corrupt checkpoint")

// Envelope is one in-flight vector on a mailbox queue.
type Envelope struct {
	Arrival int64
	V       tsp.Vector
}

// LinkEntry is one materialized link error model's captured state.
type LinkEntry struct {
	ID    topo.LinkID
	State c2c.LinkState
}

// LinkMBE is one link's uncorrectable-frame record.
type LinkMBE struct {
	ID         topo.LinkID
	Count      int64
	FirstCycle int64
}

// Snapshot is a cluster's complete state at one heap barrier.
type Snapshot struct {
	// CaptureCycle is the run-local cycle of the barrier; BaseWall the
	// wall cycle of the run's cycle 0; Cadence the armed checkpoint
	// interval (informational).
	CaptureCycle int64
	BaseWall     int64
	Cadence      int64
	// BaseBER and the error RNG cursor reproduce the cluster's link error
	// process; HasRNG distinguishes "no error process armed" from a
	// zero-state stream.
	BaseBER  float64
	HasRNG   bool
	RNGState uint64
	// Corrected/MBEs/FirstMBECycle are the cluster-level FEC tallies
	// (always zero MBEs at a clean barrier, carried for generality).
	Corrected     int64
	MBEs          int64
	FirstMBECycle int64
	// Chips, in TSP order; Mailboxes[chip][queue] lists in-flight
	// envelopes oldest-first.
	Chips     []tsp.ChipState
	Mailboxes [][][]Envelope
	// Links (sorted by ID), per-link MBE records (sorted by ID), and the
	// repaired set (sorted).
	Links    []LinkEntry
	LinkMBEs []LinkMBE
	Repaired []topo.LinkID
	// Obs is the recorder state at capture (nil when observability was
	// off). Populated by Decode; Encode takes it from here too.
	Obs *obs.State
}

// --- encoder -----------------------------------------------------------

// Fixed record sizes of the format, in bytes.
const (
	headerLen     = len(magic) + 4 + 8 // magic, version, payload length
	crcLen        = 4
	clusterFixed  = 8*8 + 1 // cycles, BER, RNG flag and cursor, FEC tallies
	unitLen       = 8 + 8 + 1 + 1 + 8 + 8
	rowLen        = tsp.FloatLanes * 4 // one weight row
	rowMaskLen    = len(tsp.ChipState{}.RowMask) * 8
	memVectorLen  = 8 + len(mem.VectorState{}.Words)*9
	envelopeLen   = 8 + tsp.VectorBytes
	linkEntryLen  = 6 * 8
	linkMBELen    = 3 * 8
	chipFixedLen  = 8 + rowMaskLen + 4 + len(tsp.ChipState{}.Units)*unitLen + 8 + 8 + 4
	histFixedLen  = 4*8 + 4
	eventFixedLen = 1 + 4*8
	sampleLen     = 8 + 8 // one series sample: cycle, value
)

// buf writes little-endian fields into a blob allocated at its exact
// size. Nothing is appended a field at a time.
type buf struct {
	b   []byte
	off int // next byte to fill
}

func (w *buf) u8(v byte) {
	w.b[w.off] = v
	w.off++
}
func (w *buf) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.b[w.off:], v)
	w.off += 4
}
func (w *buf) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b[w.off:], v)
	w.off += 8
}
func (w *buf) i64(v int64)    { w.u64(uint64(v)) }
func (w *buf) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *buf) bytes(v []byte) { w.off += copy(w.b[w.off:], v) }
func (w *buf) str(s string) {
	w.u32(uint32(len(s)))
	w.off += copy(w.b[w.off:], s)
}
func (w *buf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// Encode serializes the whole snapshot (cluster section + Obs) into one
// blob.
func Encode(s *Snapshot) []byte { return EncodeView(s, s.Obs.View()) }

// EncodeView serializes s's cluster section, with v as the obs section (a
// nil v encodes as absent), into one blob allocated at its exact size: the
// header, both sections, then the CRC over the payload. s.Obs is ignored.
func EncodeView(s *Snapshot, v *obs.View) []byte {
	payload := ClusterLen(s) + obsLen(v)
	w := &buf{b: make([]byte, headerLen+payload+crcLen)}
	w.off = copy(w.b, magic)
	w.u32(Version)
	w.u64(uint64(payload))
	putCluster(w, s)
	putObs(w, v)
	w.u32(crc32.ChecksumIEEE(w.b[headerLen:w.off]))
	// A length function that disagrees with its writer is a bug, never a
	// blob.
	if w.off != len(w.b) {
		panic(fmt.Sprintf("checkpoint: wrote %d of %d bytes", w.off, len(w.b)))
	}
	return w.b
}

// putCluster writes the cluster section: everything but the obs state.
func putCluster(w *buf, s *Snapshot) {
	w.i64(s.CaptureCycle)
	w.i64(s.BaseWall)
	w.i64(s.Cadence)
	w.f64(s.BaseBER)
	w.bool(s.HasRNG)
	w.u64(s.RNGState)
	w.i64(s.Corrected)
	w.i64(s.MBEs)
	w.i64(s.FirstMBECycle)

	w.u32(uint32(len(s.Chips)))
	for ci := range s.Chips {
		putChip(w, &s.Chips[ci])
	}

	w.u32(uint32(len(s.Mailboxes)))
	for _, mb := range s.Mailboxes {
		w.u32(uint32(len(mb)))
		for _, q := range mb {
			w.u32(uint32(len(q)))
			for k := range q {
				w.i64(q[k].Arrival)
				w.bytes(q[k].V[:])
			}
		}
	}

	w.u32(uint32(len(s.Links)))
	for _, le := range s.Links {
		w.i64(int64(le.ID))
		w.f64(le.State.BitErrorRate)
		w.f64(le.State.MeanShift)
		w.i64(int64(le.State.Health))
		w.i64(int64(le.State.AlignedMargin))
		w.u64(le.State.RNG)
	}

	w.u32(uint32(len(s.LinkMBEs)))
	for _, lm := range s.LinkMBEs {
		w.i64(int64(lm.ID))
		w.i64(lm.Count)
		w.i64(lm.FirstCycle)
	}

	w.u32(uint32(len(s.Repaired)))
	for _, id := range s.Repaired {
		w.i64(int64(id))
	}
}

// ClusterLen is the exact encoded length of s's cluster section, which is
// what the `checkpoint.bytes` counter reports: the obs section cannot
// count itself.
func ClusterLen(s *Snapshot) int {
	n := clusterFixed + 4
	for ci := range s.Chips {
		n += chipLen(&s.Chips[ci])
	}
	n += 4
	for _, mb := range s.Mailboxes {
		n += 4
		for _, q := range mb {
			n += 4 + len(q)*envelopeLen
		}
	}
	n += 4 + len(s.Links)*linkEntryLen
	n += 4 + len(s.LinkMBEs)*linkMBELen
	n += 4 + len(s.Repaired)*8
	return n
}

func chipLen(c *tsp.ChipState) int {
	return chipFixedLen + len(c.Streams)*tsp.VectorBytes + len(c.Rows)*rowLen + len(c.Mem.Vectors)*memVectorLen
}

// putChip writes one chip's section: the nonzero stream registers and
// weight rows behind their masks, unit cursors, and the raw SECDED memory
// words.
func putChip(w *buf, c *tsp.ChipState) {
	// A mask that disagrees with its list is a bug, never a blob.
	if bits.OnesCount64(c.StreamMask) != len(c.Streams) || rowCount(&c.RowMask) != len(c.Rows) {
		panic("checkpoint: a chip mask disagrees with its list")
	}
	w.u64(c.StreamMask)
	for i := range c.Streams {
		w.bytes(c.Streams[i][:])
	}
	for _, m := range c.RowMask {
		w.u64(m)
	}
	for i := range c.Rows {
		putRow(w.b[w.off:w.off+rowLen], &c.Rows[i])
		w.off += rowLen
	}
	w.u32(uint32(len(c.Units)))
	for u := range c.Units {
		us := &c.Units[u]
		w.i64(int64(us.PC))
		w.i64(us.Cursor)
		w.bool(us.Parked)
		w.bool(us.Halted)
		w.i64(us.Busy)
		w.i64(us.Stall)
	}
	w.i64(c.Mem.CorrectedSBEs)
	w.i64(c.Mem.DetectedMBEs)
	w.u32(uint32(len(c.Mem.Vectors)))
	for vi := range c.Mem.Vectors {
		vs := &c.Mem.Vectors[vi]
		w.i64(int64(vs.Linear))
		b := w.b[w.off : w.off+memVectorLen-8]
		for _, word := range vs.Words {
			binary.LittleEndian.PutUint64(b, word.Data)
			b[8] = word.Check
			b = b[9:]
		}
		w.off += memVectorLen - 8
	}
}

// obsLen is the exact encoded length of the obs section.
func obsLen(v *obs.View) int {
	n := 1
	if v == nil {
		return n
	}
	n += 4
	for _, e := range v.Counters {
		n += 4 + len(e.Key) + 8
	}
	n += 4
	for _, e := range v.Gauges {
		n += 4 + len(e.Key) + 8
	}
	n += 4
	for _, e := range v.Hists {
		n += 4 + len(e.Key) + histFixedLen + len(e.Val.Counts)*8
	}
	n += 4
	for i := range v.Events {
		n += 4 + len(v.Events[i].Name) + eventFixedLen
	}
	n += 4
	for _, e := range v.Procs {
		n += 8 + 4 + len(e.Val)
	}
	n += 4
	for _, e := range v.Threads {
		n += 16 + 4 + len(e.Val)
	}
	n += 8 + 4
	for _, e := range v.Series {
		n += 4 + len(e.Key) + 8 + 4 + len(e.Val.Samples)*sampleLen
	}
	return n
}

// putObs writes the recorder state section, every registry in the view's
// ascending key order.
func putObs(w *buf, v *obs.View) {
	if v == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.u32(uint32(len(v.Counters)))
	for _, e := range v.Counters {
		w.str(e.Key)
		w.i64(e.Val)
	}
	w.u32(uint32(len(v.Gauges)))
	for _, e := range v.Gauges {
		w.str(e.Key)
		w.i64(e.Val)
	}
	w.u32(uint32(len(v.Hists)))
	for _, e := range v.Hists {
		h := &e.Val
		w.str(e.Key)
		w.f64(h.Origin)
		w.f64(h.Width)
		w.i64(h.Underflow)
		w.i64(h.Overflow)
		w.u32(uint32(len(h.Counts)))
		for _, c := range h.Counts {
			w.i64(c)
		}
	}
	w.u32(uint32(len(v.Events)))
	for i := range v.Events {
		ev := &v.Events[i]
		w.str(ev.Name)
		w.u8(ev.Ph)
		w.i64(int64(ev.Pid))
		w.i64(int64(ev.Tid))
		w.f64(ev.TS)
		w.f64(ev.Dur)
	}
	w.u32(uint32(len(v.Procs)))
	for _, e := range v.Procs {
		w.i64(int64(e.Key))
		w.str(e.Val)
	}
	w.u32(uint32(len(v.Threads)))
	for _, e := range v.Threads {
		w.i64(int64(e.Key[0]))
		w.i64(int64(e.Key[1]))
		w.str(e.Val)
	}
	w.i64(v.SeriesCadence)
	w.u32(uint32(len(v.Series)))
	for _, e := range v.Series {
		w.str(e.Key)
		w.i64(int64(e.Val.Pid))
		w.u32(uint32(len(e.Val.Samples)))
		n := len(e.Val.Samples) * sampleLen
		putSamples(w.b[w.off:w.off+n], e.Val.Samples)
		w.off += n
	}
}

// --- decoder -----------------------------------------------------------

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("checkpoint: truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// bool accepts only the bytes Encode writes, so every blob Decode accepts
// re-encodes to itself.
func (d *dec) bool() bool {
	switch b := d.u8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("checkpoint: bool byte %d at offset %d", b, d.off-1)
		return false
	}
}

// ascending fails unless a map key just read is strictly above the
// previous one (ok): Encode emits every map in ascending key order, so a
// repeated or out-of-order key is not a blob it wrote.
func (d *dec) ascending(ok bool, what string) {
	if !ok {
		d.fail("checkpoint: %s key out of order at offset %d", what, d.off)
	}
}

func (d *dec) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a collection length and bounds it by the bytes remaining
// (fits).
func (d *dec) count(min int) int { return d.fits(int(d.u32()), min) }

// fits bounds an element count, read as a length or a mask, by the bytes
// remaining: each element is at least min bytes on the wire, so a count
// that could not fit is corrupt, and no count can drive an allocation
// larger than a constant times the blob (TestDecodeAllocationBounded).
func (d *dec) fits(n, min int) int {
	if d.err == nil && n > (len(d.b)-d.off)/min {
		d.fail("checkpoint: implausible element count %d at offset %d", n, d.off)
		return 0
	}
	return n
}

// zeroEntry is what no register or row a mask names may hold.
var zeroEntry [tsp.VectorBytes]byte

// entry reads one stream register or weight row a mask names. Encode
// writes only nonzero ones, so an all-zero entry is not a blob it wrote.
func (d *dec) entry(what string) []byte {
	b := d.take(tsp.VectorBytes)
	if b != nil && bytes.Equal(b, zeroEntry[:]) {
		d.fail("checkpoint: all-zero %s at offset %d", what, d.off-len(b))
	}
	return b
}

// rowCount is the number of weight rows a row mask names.
func rowCount(m *[len(tsp.ChipState{}.RowMask)]uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// rowTail is the number of row mask bits the last mask word uses (0: all).
const rowTail = tsp.WeightRows % 64

// grow returns room for n decoded elements, and nil for none: a
// collection Encode wrote empty decodes as a nil slice.
func grow[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// Decode parses and verifies a blob. Any structural problem — short blob,
// bad magic, unknown version, checksum mismatch, truncated payload —
// returns an error wrapping ErrCorrupt.
func Decode(blob []byte) (*Snapshot, error) {
	if len(blob) < len(magic)+4+8+4 {
		return nil, fmt.Errorf("checkpoint: blob too short (%d bytes): %w", len(blob), ErrCorrupt)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic: %w", ErrCorrupt)
	}
	hd := &dec{b: blob, off: len(magic)}
	ver := hd.u32()
	if ver != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d): %w", ver, Version, ErrCorrupt)
	}
	plen := hd.u64()
	if plen > uint64(len(blob)) {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds blob: %w", plen, ErrCorrupt)
	}
	payload := hd.take(int(plen))
	sum := hd.u32()
	if hd.err != nil {
		return nil, hd.err
	}
	if hd.off != len(blob) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the checksum: %w", len(blob)-hd.off, ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (got %08x want %08x): %w", got, sum, ErrCorrupt)
	}

	d := &dec{b: payload}
	s := &Snapshot{}
	s.CaptureCycle = d.i64()
	s.BaseWall = d.i64()
	s.Cadence = d.i64()
	s.BaseBER = d.f64()
	s.HasRNG = d.bool()
	s.RNGState = d.u64()
	s.Corrected = d.i64()
	s.MBEs = d.i64()
	s.FirstMBECycle = d.i64()

	if n := d.count(chipFixedLen); n > 0 {
		s.Chips = make([]tsp.ChipState, n)
	}
	for ci := 0; ci < len(s.Chips) && d.err == nil; ci++ {
		c := &s.Chips[ci]
		c.StreamMask = d.u64()
		n := d.fits(bits.OnesCount64(c.StreamMask), tsp.VectorBytes)
		c.Streams = grow[tsp.Vector](n)
		for i := 0; i < n && d.err == nil; i++ {
			if b := d.entry("stream register"); b != nil {
				c.Streams = append(c.Streams, tsp.Vector(b))
			}
		}
		for w := range c.RowMask {
			c.RowMask[w] = d.u64()
		}
		if last := c.RowMask[len(c.RowMask)-1]; d.err == nil && rowTail != 0 && last>>rowTail != 0 {
			d.fail("checkpoint: chip %d row mask names rows at or past %d", ci, tsp.WeightRows)
		}
		n = d.fits(rowCount(&c.RowMask), rowLen)
		c.Rows = grow[[tsp.FloatLanes]float32](n)
		for r := 0; r < n && d.err == nil; r++ {
			if b := d.entry("weight row"); b != nil {
				c.Rows = append(c.Rows, [tsp.FloatLanes]float32{})
				getRow(&c.Rows[r], b)
			}
		}
		nUnits := d.count(8)
		if d.err == nil && nUnits != len(c.Units) {
			d.fail("checkpoint: chip %d has %d units (want %d)", ci, nUnits, len(c.Units))
		}
		for u := 0; u < nUnits && d.err == nil; u++ {
			c.Units[u] = tsp.UnitState{
				PC:     int(d.i64()),
				Cursor: d.i64(),
				Parked: d.bool(),
				Halted: d.bool(),
				Busy:   d.i64(),
				Stall:  d.i64(),
			}
		}
		c.Mem.CorrectedSBEs = d.i64()
		c.Mem.DetectedMBEs = d.i64()
		nVecs := d.count(memVectorLen)
		c.Mem.Vectors = grow[mem.VectorState](nVecs)
		for v := 0; v < nVecs && d.err == nil; v++ {
			vs := mem.VectorState{Linear: int(d.i64())}
			for w := range vs.Words {
				vs.Words[w].Data = d.u64()
				vs.Words[w].Check = d.u8()
			}
			c.Mem.Vectors = append(c.Mem.Vectors, vs)
		}
	}

	nMB := d.count(4)
	s.Mailboxes = grow[[][]Envelope](nMB)
	for i := 0; i < nMB && d.err == nil; i++ {
		nQ := d.count(4)
		mb := make([][]Envelope, 0, nQ)
		for q := 0; q < nQ && d.err == nil; q++ {
			nE := d.count(envelopeLen)
			queue := make([]Envelope, 0, nE)
			for k := 0; k < nE && d.err == nil; k++ {
				var env Envelope
				env.Arrival = d.i64()
				copy(env.V[:], d.take(tsp.VectorBytes))
				queue = append(queue, env)
			}
			mb = append(mb, queue)
		}
		s.Mailboxes = append(s.Mailboxes, mb)
	}

	nLinks := d.count(linkEntryLen)
	s.Links = grow[LinkEntry](nLinks)
	for i := 0; i < nLinks && d.err == nil; i++ {
		le := LinkEntry{ID: topo.LinkID(d.i64())}
		le.State.BitErrorRate = d.f64()
		le.State.MeanShift = d.f64()
		le.State.Health = c2c.Health(d.i64())
		le.State.AlignedMargin = int(d.i64())
		le.State.RNG = d.u64()
		s.Links = append(s.Links, le)
	}

	nMBEs := d.count(linkMBELen)
	s.LinkMBEs = grow[LinkMBE](nMBEs)
	for i := 0; i < nMBEs && d.err == nil; i++ {
		s.LinkMBEs = append(s.LinkMBEs, LinkMBE{
			ID:         topo.LinkID(d.i64()),
			Count:      d.i64(),
			FirstCycle: d.i64(),
		})
	}

	nRep := d.count(8)
	s.Repaired = grow[topo.LinkID](nRep)
	for i := 0; i < nRep && d.err == nil; i++ {
		s.Repaired = append(s.Repaired, topo.LinkID(d.i64()))
	}

	if d.bool() {
		s.Obs = decodeObs(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("checkpoint: %d trailing payload bytes: %w", len(d.b)-d.off, ErrCorrupt)
	}
	return s, nil
}

func decodeObs(d *dec) *obs.State {
	s := &obs.State{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]obs.HistState{},
		Procs:    map[int]string{},
		Threads:  map[[2]int]string{},
		Series:   map[string]obs.SeriesState{},
	}
	var last string
	n := d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		d.ascending(i == 0 || k > last, "counter")
		s.Counters[k], last = d.i64(), k
	}
	n = d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		d.ascending(i == 0 || k > last, "gauge")
		s.Gauges[k], last = d.i64(), k
	}
	n = d.count(40)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		d.ascending(i == 0 || k > last, "histogram")
		last = k
		h := obs.HistState{
			Origin:    d.f64(),
			Width:     d.f64(),
			Underflow: d.i64(),
			Overflow:  d.i64(),
		}
		bins := d.count(8)
		h.Counts = grow[int64](bins)
		// Encode writes only shapes stats.NewHistogram accepts, and
		// LoadState panics on any other.
		if bins == 0 || math.IsNaN(h.Origin) || math.IsInf(h.Origin, 0) || !(h.Width > 0) || math.IsInf(h.Width, 1) {
			d.fail("checkpoint: histogram %q has origin %v, width %v and %d bins", k, h.Origin, h.Width, bins)
		}
		for b := 0; b < bins && d.err == nil; b++ {
			h.Counts = append(h.Counts, d.i64())
		}
		s.Hists[k] = h
	}
	n = d.count(4 + eventFixedLen)
	s.Events = grow[obs.EventState](n)
	for i := 0; i < n && d.err == nil; i++ {
		ev := obs.EventState{Name: d.str(), Ph: d.u8()}
		ev.Pid = int(d.i64())
		ev.Tid = int(d.i64())
		ev.TS = d.f64()
		ev.Dur = d.f64()
		// Recorded times are finite, and a restored recorder exports its
		// trace, which has no form for NaN or ±Inf.
		if math.IsNaN(ev.TS) || math.IsInf(ev.TS, 0) || math.IsNaN(ev.Dur) || math.IsInf(ev.Dur, 0) {
			d.fail("checkpoint: trace event %q has ts %v and dur %v", ev.Name, ev.TS, ev.Dur)
		}
		s.Events = append(s.Events, ev)
	}
	var lastPid int
	n = d.count(12)
	for i := 0; i < n && d.err == nil; i++ {
		pid := int(d.i64())
		d.ascending(i == 0 || pid > lastPid, "process")
		s.Procs[pid], lastPid = d.str(), pid
	}
	var lastThread [2]int
	n = d.count(20)
	for i := 0; i < n && d.err == nil; i++ {
		k := [2]int{int(d.i64()), int(d.i64())}
		d.ascending(i == 0 || k[0] > lastThread[0] || k[0] == lastThread[0] && k[1] > lastThread[1], "thread")
		s.Threads[k], lastThread = d.str(), k
	}
	s.SeriesCadence = d.i64()
	n = d.count(16)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		d.ascending(i == 0 || k > last, "series")
		last = k
		sr := obs.SeriesState{Pid: int(d.i64())}
		ns := d.count(sampleLen)
		if b := d.take(ns * sampleLen); b != nil {
			sr.Samples = grow[obs.SamplePoint](ns)[:ns]
			getSamples(sr.Samples, b)
		}
		s.Series[k] = sr
	}
	return s
}
