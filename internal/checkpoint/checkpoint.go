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
// per-chip streams, MXM weights, ICU positions and cursors, raw SECDED
// memory words, mailbox queues (the only in-flight link state at a window
// barrier — pending sends are always flushed before capture), per-link
// error-model state including RNG cursors, FEC tallies, and the repaired
// set. The obs section carries the recorder registry (counters, gauges,
// histograms, trace events, name tables) so a restored run's dumps are
// byte-identical to the straight run's. The sections are split because
// the `checkpoint.bytes` counter must itself be inside the obs section:
// it is stamped after the cluster section is encoded and before the obs
// state is captured, in both the straight and the restored run.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/c2c"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// Version is the current format version. Version 2 added per-unit stall
// cycles to the cluster section and time series (plus the sampling
// cadence) to the obs section.
const Version = 2

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
	weightsLen    = tsp.WeightRows * tsp.FloatLanes * 4
	memVectorLen  = 8 + len(mem.VectorState{}.Words)*9
	envelopeLen   = 8 + tsp.VectorBytes
	linkEntryLen  = 6 * 8
	linkMBELen    = 3 * 8
	chipFixedLen  = tsp.NumStreams*tsp.VectorBytes + weightsLen + 4 + len(tsp.ChipState{}.Units)*unitLen + 8 + 8 + 4
	histFixedLen  = 4*8 + 4
	eventFixedLen = 1 + 4*8
)

// buf writes little-endian fields into space reserved up front: reserve
// lengthens the blob by a computed size, and the writes fill it in order.
// Nothing is appended a field at a time.
type buf struct {
	b   []byte
	off int // next byte to fill; len(b) ends the reserved space
}

// reserve lengthens the blob by n bytes, reallocating to the exact size
// when the capacity falls short.
func (w *buf) reserve(n int) {
	if need := len(w.b) + n; need > cap(w.b) {
		nb := make([]byte, len(w.b), need)
		copy(nb, w.b)
		w.b = nb
	}
	w.b = w.b[:len(w.b)+n]
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

// filled panics unless every reserved byte was written: a size function
// that disagrees with its writer is a bug, never a blob.
func (w *buf) filled(section string) {
	if w.off != len(w.b) {
		panic(fmt.Sprintf("checkpoint: %s section wrote %d of %d reserved bytes", section, w.off, len(w.b)))
	}
}

// Writer encodes one blob in a single buffer: the header with a length
// placeholder, the cluster section, the obs section, then the length patch
// and the CRC over the payload in place. Cluster and Finish each reserve
// their section's exact size before writing it. Call Cluster once, then
// Finish once.
type Writer struct{ w buf }

// NewWriter starts a blob in b's storage (its contents are discarded). A
// b with enough capacity for the whole blob is never reallocated.
func NewWriter(b []byte) *Writer {
	wr := &Writer{w: buf{b: b[:0]}}
	wr.w.reserve(headerLen)
	wr.w.off = copy(wr.w.b, magic)
	wr.w.u32(Version)
	wr.w.u64(0) // payload length, patched by Finish
	return wr
}

// Cluster appends the snapshot's cluster section (everything but the obs
// state) and returns its length, which is what the `checkpoint.bytes`
// counter reports: the obs section cannot count itself.
func (wr *Writer) Cluster(s *Snapshot) int {
	w := &wr.w
	start := w.off
	w.reserve(clusterLen(s))
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
	w.filled("cluster")
	return w.off - start
}

// Finish appends the obs section (a nil state encodes as absent), patches
// the payload length into the header, appends the payload's CRC and
// returns the blob.
func (wr *Writer) Finish(st *obs.State) []byte {
	w := &wr.w
	w.reserve(obsLen(st))
	putObs(w, st)
	w.filled("obs")
	payload := w.b[headerLen:]
	binary.LittleEndian.PutUint64(w.b[len(magic)+4:], uint64(len(payload)))
	sum := crc32.ChecksumIEEE(payload)
	w.reserve(crcLen)
	w.u32(sum)
	return w.b
}

// Encode serializes the whole snapshot (cluster section + Obs) into one
// blob.
func Encode(s *Snapshot) []byte {
	wr := NewWriter(make([]byte, 0, headerLen+clusterLen(s)+obsLen(s.Obs)+crcLen))
	wr.Cluster(s)
	return wr.Finish(s.Obs)
}

// clusterLen is the exact encoded length of s's cluster section.
func clusterLen(s *Snapshot) int {
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

func chipLen(c *tsp.ChipState) int { return chipFixedLen + len(c.Mem.Vectors)*memVectorLen }

// putChip writes one chip's section: streams, weights, unit cursors, and
// the raw SECDED memory words.
func putChip(w *buf, c *tsp.ChipState) {
	for i := range c.Streams {
		w.bytes(c.Streams[i][:])
	}
	b := w.b[w.off : w.off+weightsLen]
	for r := range c.Weights {
		for _, v := range c.Weights[r] {
			binary.LittleEndian.PutUint32(b, math.Float32bits(v))
			b = b[4:]
		}
	}
	w.off += weightsLen
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
func obsLen(s *obs.State) int {
	n := 1
	if s == nil {
		return n
	}
	n += 4
	for k := range s.Counters {
		n += 4 + len(k) + 8
	}
	n += 4
	for k := range s.Gauges {
		n += 4 + len(k) + 8
	}
	n += 4
	for k, h := range s.Hists {
		n += 4 + len(k) + histFixedLen + len(h.Counts)*8
	}
	n += 4
	for i := range s.Events {
		n += 4 + len(s.Events[i].Name) + eventFixedLen
	}
	n += 4
	for _, name := range s.Procs {
		n += 8 + 4 + len(name)
	}
	n += 4
	for _, name := range s.Threads {
		n += 16 + 4 + len(name)
	}
	n += 8 + 4
	for k, sr := range s.Series {
		n += 4 + len(k) + 8 + 4 + len(sr.Samples)*16
	}
	return n
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// putObs writes the recorder state section, every map in sorted key order.
func putObs(w *buf, s *obs.State) {
	if s == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	cks := sortedKeys(s.Counters)
	w.u32(uint32(len(cks)))
	for _, k := range cks {
		w.str(k)
		w.i64(s.Counters[k])
	}
	gks := sortedKeys(s.Gauges)
	w.u32(uint32(len(gks)))
	for _, k := range gks {
		w.str(k)
		w.i64(s.Gauges[k])
	}
	hks := sortedKeys(s.Hists)
	w.u32(uint32(len(hks)))
	for _, k := range hks {
		h := s.Hists[k]
		w.str(k)
		w.f64(h.Origin)
		w.f64(h.Width)
		w.i64(h.Underflow)
		w.i64(h.Overflow)
		w.u32(uint32(len(h.Counts)))
		for _, c := range h.Counts {
			w.i64(c)
		}
	}
	w.u32(uint32(len(s.Events)))
	for i := range s.Events {
		ev := &s.Events[i]
		w.str(ev.Name)
		w.u8(ev.Ph)
		w.i64(int64(ev.Pid))
		w.i64(int64(ev.Tid))
		w.f64(ev.TS)
		w.f64(ev.Dur)
	}
	pids := sortedKeys(s.Procs)
	w.u32(uint32(len(pids)))
	for _, pid := range pids {
		w.i64(int64(pid))
		w.str(s.Procs[pid])
	}
	tks := make([][2]int, 0, len(s.Threads))
	for k := range s.Threads {
		tks = append(tks, k)
	}
	slices.SortFunc(tks, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	w.u32(uint32(len(tks)))
	for _, k := range tks {
		w.i64(int64(k[0]))
		w.i64(int64(k[1]))
		w.str(s.Threads[k])
	}
	w.i64(s.SeriesCadence)
	sks := sortedKeys(s.Series)
	w.u32(uint32(len(sks)))
	for _, k := range sks {
		sr := s.Series[k]
		w.str(k)
		w.i64(int64(sr.Pid))
		w.u32(uint32(len(sr.Samples)))
		for _, p := range sr.Samples {
			w.i64(p.Cycle)
			w.i64(p.Value)
		}
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
func (d *dec) f32() float32 { return math.Float32frombits(d.u32()) }

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

// count reads a collection length and sanity-bounds it against the bytes
// remaining (each element needs at least min bytes), so a corrupted count
// cannot drive a huge allocation.
func (d *dec) count(min int) int {
	n := int(d.u32())
	if d.err == nil && min > 0 && n > (len(d.b)-d.off)/min+1 {
		d.fail("checkpoint: implausible element count %d at offset %d", n, d.off)
		return 0
	}
	return n
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

	nChips := d.count(tsp.NumStreams * tsp.VectorBytes)
	for ci := 0; ci < nChips && d.err == nil; ci++ {
		var c tsp.ChipState
		for i := range c.Streams {
			copy(c.Streams[i][:], d.take(tsp.VectorBytes))
		}
		for r := range c.Weights {
			for j := range c.Weights[r] {
				c.Weights[r][j] = d.f32()
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
		nVecs := d.count(8 + 9*tsp.VectorBytes/8)
		for v := 0; v < nVecs && d.err == nil; v++ {
			vs := mem.VectorState{Linear: int(d.i64())}
			for w := range vs.Words {
				vs.Words[w].Data = d.u64()
				vs.Words[w].Check = d.u8()
			}
			c.Mem.Vectors = append(c.Mem.Vectors, vs)
		}
		s.Chips = append(s.Chips, c)
	}

	nMB := d.count(4)
	for i := 0; i < nMB && d.err == nil; i++ {
		nQ := d.count(4)
		mb := make([][]Envelope, 0, nQ)
		for q := 0; q < nQ && d.err == nil; q++ {
			nE := d.count(8 + tsp.VectorBytes)
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

	nLinks := d.count(8 * 5)
	for i := 0; i < nLinks && d.err == nil; i++ {
		le := LinkEntry{ID: topo.LinkID(d.i64())}
		le.State.BitErrorRate = d.f64()
		le.State.MeanShift = d.f64()
		le.State.Health = c2c.Health(d.i64())
		le.State.AlignedMargin = int(d.i64())
		le.State.RNG = d.u64()
		s.Links = append(s.Links, le)
	}

	nMBEs := d.count(24)
	for i := 0; i < nMBEs && d.err == nil; i++ {
		s.LinkMBEs = append(s.LinkMBEs, LinkMBE{
			ID:         topo.LinkID(d.i64()),
			Count:      d.i64(),
			FirstCycle: d.i64(),
		})
	}

	nRep := d.count(8)
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
	n = d.count(37)
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
		ns := d.count(16)
		for j := 0; j < ns && d.err == nil; j++ {
			sr.Samples = append(sr.Samples, obs.SamplePoint{Cycle: d.i64(), Value: d.i64()})
		}
		s.Series[k] = sr
	}
	return s
}
