package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// traceFloats are the float values a fuzz input names by index: both sides
// of encoding/json's 'f'/'e' switches at 1e-6 and 1e21, signed zeros,
// subnormals, and the values that have no JSON form.
var traceFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -2.25, 1.0 / 3, 123456.789, 1e20,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-9, 1e-10,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e100,
	5e-324, math.Nextafter(0x1p-1022, 0), 0x1p-1022, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// traceOps reads a fuzz input as a sequence of recorder operations.
// Exhausted input reads as zeros.
type traceOps struct{ b []byte }

func (o *traceOps) u8() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

func (o *traceOps) small() int { return int(int8(o.u8())) }

// f64 reads a selector byte: an index into traceFloats, 8 raw bits when
// its top bit is set, or else a small multiple of 1/7.
func (o *traceOps) f64() float64 {
	s := o.u8()
	switch {
	case int(s) < len(traceFloats):
		return traceFloats[s]
	case s&0x80 != 0:
		var raw [8]byte
		for i := range raw {
			raw[i] = o.u8()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	return float64(s) / 7
}

// str reads a length byte (mod 16) and that many bytes, so names carry
// control bytes, HTML metacharacters, quotes, U+2028 and invalid UTF-8.
func (o *traceOps) str() string {
	n := min(int(o.u8()%16), len(o.b))
	s := string(o.b[:n])
	o.b = o.b[n:]
	return s
}

// sameEvents reports whether a and b hold bit-identical events in the same
// order.
func sameEvents(a, b []EventState) bool {
	return slices.EqualFunc(a, b, func(x, y EventState) bool { return compareEvents(x, y) == 0 })
}

// checkTrace requires WriteTrace to write exactly the oracle's bytes, or to
// fail where the oracle fails.
func checkTrace(t *testing.T, r *Recorder) {
	t.Helper()
	var want, got bytes.Buffer
	werr := writeTraceJSON(r, &want)
	gerr := r.WriteTrace(&got)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("oracle failed (%v), WriteTrace did not", werr)
	case werr == nil && gerr != nil:
		t.Fatalf("WriteTrace failed (%v), oracle did not", gerr)
	case werr != nil && got.Len() != 0:
		t.Fatalf("failed WriteTrace wrote %d bytes", got.Len())
	case werr == nil && !bytes.Equal(got.Bytes(), want.Bytes()):
		t.Fatalf("WriteTrace bytes differ from encoding/json:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// FuzzWriteTrace is a differential test of WriteTrace against the
// encoding/json writer it replaced. Each op is one byte, taken mod 9:
//
//	0 append an event: ph byte, pid, tid, ts, dur, name
//	1 SpanUS: pid, tid, ts, dur, name
//	2 InstantUS: pid, tid, ts, name
//	3 SetProcessName: pid, name
//	4 SetThreadName: pid, tid, name
//	5 series sample: pid, cycle (two bytes, scaled), value, name
//	6 State, whose events must be the sorted multiset
//	7 LoadState of the current state with its events reversed
//	8 WriteTrace, checked against the oracle
//
// and the trace is checked once more at the end. The seeds in
// testdata/fuzz/FuzzWriteTrace cover hostile names, every Ph byte, both
// sides of the float format switches, non-finite values, series samples,
// exports between batches of appends, and timestamps repeated across
// chips, signed zeros and a shared series grid (repeated-ts).
func FuzzWriteTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &traceOps{b: data}
		r := New()
		for len(o.b) > 0 {
			switch o.u8() % 9 {
			case 0:
				e := EventState{Ph: o.u8(), Pid: o.small(), Tid: o.small(), TS: o.f64(), Dur: o.f64()}
				e.Name = o.str()
				r.events = append(r.events, e)
			case 1:
				pid, tid, ts, dur := o.small(), o.small(), o.f64(), o.f64()
				r.SpanUS(pid, tid, o.str(), ts, dur)
			case 2:
				pid, tid, ts := o.small(), o.small(), o.f64()
				r.InstantUS(pid, tid, o.str(), ts)
			case 3:
				pid := o.small()
				r.SetProcessName(pid, o.str())
			case 4:
				pid, tid := o.small(), o.small()
				r.SetThreadName(pid, tid, o.str())
			case 5:
				pid := o.small()
				cycle := int64(int16(uint16(o.u8())|uint16(o.u8())<<8)) * 1009
				value := int64(o.small())
				r.Series(o.str(), pid).Add(cycle, value)
			case 6:
				want := slices.Clone(r.events)
				slices.SortFunc(want, compareEvents)
				if got := r.State().Events; !sameEvents(got, want) {
					t.Fatalf("State events %v, want %v", got, want)
				}
			case 7:
				s := r.State()
				slices.Reverse(s.Events)
				r.LoadState(s)
			case 8:
				checkTrace(t, r)
			}
		}
		checkTrace(t, r)
	})
}

// TestWriteTraceNonFinite: a NaN or infinite ts, or dur on a span, fails
// the export and writes nothing, as encoding/json did; an instant's dur is
// not exported, so it may be anything.
func TestWriteTraceNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []EventState{
			{Name: "ts", Ph: 'X', TS: bad},
			{Name: "dur", Ph: 'X', Dur: bad},
			{Name: "ts", Ph: 'i', TS: bad},
		} {
			r := New()
			r.SpanUS(0, 0, "ok", 1, 2)
			r.events = append(r.events, e)
			var buf bytes.Buffer
			if err := r.WriteTrace(&buf); err == nil || buf.Len() != 0 {
				t.Errorf("%c %s=%v: err %v after %d bytes, want an error and none", e.Ph, e.Name, bad, err, buf.Len())
			}
		}
		r := New()
		r.events = append(r.events, EventState{Name: "dur", Ph: 'i', Dur: bad})
		checkTrace(t, r)
	}
}

// TestWriteTraceRepeatedTimestamps holds WriteTrace to the oracle on the
// timestamps a lockstep run repeats: 16 chips' spans and instants at the
// same cycles, +0 and -0 side by side in both orders (equal as numbers,
// printed differently), timestamps in both of appendFloat's 'e' ranges
// next to equal ones, and series on one shared sampling grid beside one
// off it.
func TestWriteTraceRepeatedTimestamps(t *testing.T) {
	r := New()
	for round := int64(0); round < 4; round++ {
		for chip := 0; chip < 16; chip++ {
			r.SpanCycles(chip, 0, "matmul", round*650, 320)
			r.SpanCycles(chip, TidLinkBase, "send", round*650+320, 330)
			r.InstantCycles(chip, 1, "deskew", round*650)
		}
	}
	negZero := math.Copysign(0, -1)
	r.SpanUS(0, 2, "zero", 0, 1)
	r.SpanUS(0, 2, "zero", negZero, 1)
	r.SpanUS(1, 2, "zero", 0, negZero)
	r.SpanUS(2, 2, "zero", negZero, 0)
	r.InstantUS(3, 2, "zero", 0)
	for _, ts := range []float64{1e-7, -1e-7, 5e-324, 1e21, 1e21, -1e21, 1e22} {
		r.SpanUS(0, 3, "e", ts, ts)
		r.SpanUS(1, 3, "e", ts, 1)
	}
	for s := 0; s < 12; s++ {
		sr := r.Series("tsp.instructions", PidFabric, Li("chip", s))
		for c := int64(0); c < 9; c++ {
			sr.Add(c*1300, c*int64(s))
		}
	}
	off := r.Series("serve.queue_depth", PidHost)
	for c := int64(0); c < 9; c++ {
		off.Add(c*1300+7, c)
	}
	r.Series("runtime.negative", PidFabric).Add(-1300, 1)
	checkTrace(t, r)
	// A second export of the same recorder writes the same bytes.
	checkTrace(t, r)
}

// ringRecorder fills a recorder shaped like the recorded 16-chip ring's:
// about 5400 spans and instants over 16 chips, appended nearly in time
// order in nine batches, and 477 series of 38 samples each. after runs
// once per batch, as the checkpoint cadence calls State.
func ringRecorder(after func(*Recorder)) *Recorder {
	const batches, perBatch = 9, 600
	rng := rand.New(rand.NewPCG(1, 2))
	r := New()
	for chip := 0; chip < 16; chip++ {
		r.SetProcessName(chip, "tsp"+Itoa(chip))
		for unit := 0; unit < 6; unit++ {
			r.SetThreadName(chip, unit, "unit"+Itoa(unit))
		}
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			cycle := int64((b*perBatch+i)*9 - rng.IntN(40))
			chip, unit := rng.IntN(16), rng.IntN(6)
			if i%8 == 0 {
				r.InstantCycles(chip, unit, "deskew", cycle)
			} else {
				r.SpanCycles(chip, TidLinkBase+unit, "send", cycle, 650)
			}
		}
		after(r)
	}
	for s := 0; s < 477; s++ {
		sr := r.Series("tsp.instructions", PidFabric, Li("chip", s%16), Li("unit", s))
		for c := int64(0); c < 38; c++ {
			sr.Add(c*1300, c*int64(s))
		}
	}
	return r
}

// BenchmarkTraceExport times the recorded ring's two exports: WriteTrace
// of the full recorder, and a nine-capture State cadence, each capture
// sorting the batch recorded since the last.
func BenchmarkTraceExport(b *testing.B) {
	b.Run("WriteTrace", func(b *testing.B) {
		r := ringRecorder(func(*Recorder) {})
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := r.WriteTrace(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
	b.Run("State9", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ringRecorder(func(r *Recorder) { r.State() })
		}
	})
}
