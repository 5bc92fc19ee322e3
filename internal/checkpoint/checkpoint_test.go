package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/c2c"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// testSnapshot builds a snapshot that exercises every section of the
// format: populated chip state, queued envelopes, link models, MBE
// records, the repaired set, and a full obs registry.
func testSnapshot() *Snapshot {
	// Registers 0 and 63 and weight rows 0 and 159: the first and last
	// bit of each mask.
	chip := tsp.ChipState{
		StreamMask: 1 | 1<<63,
		Streams:    make([]tsp.Vector, 2),
		Rows:       make([][tsp.FloatLanes]float32, 2),
	}
	for i := range chip.Streams[0] {
		chip.Streams[0][i] = byte(i * 3)
	}
	chip.Streams[1][0] = 0xAA
	chip.RowMask[0] = 1
	chip.RowMask[159/64] = 1 << (159 % 64)
	chip.Rows[0][0] = 1.5
	chip.Rows[1][3] = -2.25
	chip.Units[0] = tsp.UnitState{PC: 3, Cursor: 990, Parked: true, Busy: 7}
	chip.Units[1] = tsp.UnitState{PC: 12, Cursor: 1300, Halted: true}
	chip.Mem.CorrectedSBEs = 4
	var vs mem.VectorState
	vs.Linear = 17
	for w := range vs.Words {
		vs.Words[w].Data = uint64(w) * 0x0101010101010101
		vs.Words[w].Check = byte(w)
	}
	chip.Mem.Vectors = []mem.VectorState{vs}

	var env Envelope
	env.Arrival = 650
	for i := range env.V {
		env.V[i] = byte(255 - i%256)
	}

	return &Snapshot{
		CaptureCycle:  1300,
		BaseWall:      6719,
		Cadence:       650,
		BaseBER:       2e-5,
		HasRNG:        true,
		RNGState:      0xDEADBEEFCAFEF00D,
		Corrected:     11,
		FirstMBECycle: -1,
		Chips:         []tsp.ChipState{chip},
		Mailboxes:     [][][]Envelope{{{env}, {}}},
		Links: []LinkEntry{{ID: 2, State: c2c.LinkState{
			BitErrorRate: 3e-4, MeanShift: 0.02, Health: c2c.Degraded,
			AlignedMargin: 9, RNG: 42,
		}}},
		LinkMBEs: []LinkMBE{{ID: 2, Count: 1, FirstCycle: 777}},
		Repaired: []topo.LinkID{2},
		Obs: &obs.State{
			Counters: map[string]int64{"checkpoint.captures": 2, "fec.corrected": 11},
			Gauges:   map[string]int64{"checkpoint.last_capture_cycle": 1300},
			Hists: map[string]obs.HistState{
				"runtime.par.window_occupancy": {Origin: 0, Width: 1, Underflow: 0, Overflow: 1, Counts: []int64{1, 2, 3}},
			},
			Events: []obs.EventState{
				{Name: "checkpoint.capture", Ph: 'i', Pid: 2, Tid: 4, TS: 0.65},
				{Name: "runtime.par.window", Ph: 'X', Pid: 2, Tid: 1, TS: 0, Dur: 0.65},
			},
			Procs:   map[int]string{2: "fabric"},
			Threads: map[[2]int]string{{2, 4}: "checkpoints"},
			Series: map[string]obs.SeriesState{
				"runtime.inflight_vectors": {Pid: 9001, Samples: []obs.SamplePoint{
					{Cycle: 650, Value: 3}, {Cycle: 1300, Value: 0},
				}},
				"tsp.busy_cycles{chip=0,unit=mxm}": {Pid: 9001, Samples: []obs.SamplePoint{
					{Cycle: 650, Value: 120},
				}},
			},
			SeriesCadence: 650,
		},
	}
}

// TestCheckpointRoundTrip: Decode(Encode(s)) reproduces the snapshot exactly,
// section by section.
func TestCheckpointRoundTrip(t *testing.T) {
	s := testSnapshot()
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestCheckpointBytesPinned pins the SHA-256 of Encode(testSnapshot()).
// Round trips cannot catch a layout that Encode and Decode get wrong the
// same way, and the recorded ring's blobs hold no weight row and no SRAM
// vector; this snapshot sets the first and last bit of both chip masks,
// holds one SRAM vector and populates every other section.
func TestCheckpointBytesPinned(t *testing.T) {
	const want = "1f0ecaafac4d8e3d7f8edd27b1b8cc0878b5ab8b81087fcc8dd741d7defa3b86"
	sum := sha256.Sum256(Encode(testSnapshot()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Encode(testSnapshot()) SHA-256 %s, want %s", got, want)
	}
}

// TestCheckpointRoundTripNilObs: a snapshot captured without observability keeps
// Obs nil through the round trip.
func TestCheckpointRoundTripNilObs(t *testing.T) {
	s := testSnapshot()
	s.Obs = nil
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Obs != nil {
		t.Errorf("Obs should stay nil, got %+v", got.Obs)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("round trip mismatch with nil Obs")
	}
}

// TestCheckpointByteStability: encoding the same state twice yields the same byte
// string — maps are sorted, nothing depends on iteration order. This is
// the property that lets the equivalence tests compare blobs directly.
func TestCheckpointByteStability(t *testing.T) {
	a := Encode(testSnapshot())
	b := Encode(testSnapshot())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of identical state differ")
	}
	// Re-encoding a decoded snapshot is also stable.
	s, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, Encode(s)) {
		t.Error("decode→encode is not the identity on blobs")
	}
}

// TestCheckpointCorruptionDetected: flipping any single byte of a valid blob must
// make Decode fail with ErrCorrupt — never panic, never succeed. Magic,
// version, and length corruption are caught structurally; everything in
// the payload is caught by the CRC.
func TestCheckpointCorruptionDetected(t *testing.T) {
	blob := Encode(testSnapshot())
	for i := 0; i < len(blob); i++ {
		blob[i] ^= 0xFF
		s, err := Decode(blob)
		blob[i] ^= 0xFF
		if err == nil {
			t.Fatalf("flip at byte %d: decode succeeded (%+v)", i, s)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error does not wrap ErrCorrupt: %v", i, err)
		}
	}
}

// TestCheckpointTruncationDetected: every proper prefix fails with ErrCorrupt.
func TestCheckpointTruncationDetected(t *testing.T) {
	blob := Encode(testSnapshot())
	for _, n := range []int{0, 4, len(magic), len(magic) + 4, len(magic) + 12, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: want ErrCorrupt, got %v", n, err)
		}
	}
}

// TestCheckpointUnknownVersionRejected: a future version number is unusable, not
// misparsed.
func TestCheckpointUnknownVersionRejected(t *testing.T) {
	blob := append([]byte(nil), Encode(testSnapshot())...)
	blob[len(magic)] = Version + 1
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Errorf("want ErrCorrupt for unknown version, got %v", err)
	}
}

// TestCheckpointBadHistogramRejected: a histogram shape Encode never
// writes — no bins, a non-finite origin, a width that is not positive and
// finite — fails Decode with ErrCorrupt instead of reaching LoadState,
// whose stats.NewHistogram panics on it.
func TestCheckpointBadHistogramRejected(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, h := range []obs.HistState{
		{Origin: 0, Width: 1},
		{Origin: 0, Width: 0, Counts: []int64{1}},
		{Origin: 0, Width: -1, Counts: []int64{1}},
		{Origin: 0, Width: nan, Counts: []int64{1}},
		{Origin: 0, Width: inf, Counts: []int64{1}},
		{Origin: nan, Width: 1, Counts: []int64{1}},
		{Origin: -inf, Width: 1, Counts: []int64{1}},
	} {
		s := testSnapshot()
		s.Obs.Hists["bad"] = h
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("histogram %+v: want ErrCorrupt, got %v", h, err)
		}
	}
}

// TestCheckpointNonFiniteEventRejected: a trace event whose ts or dur is
// NaN or ±Inf fails Decode with ErrCorrupt. A recorder restored from it
// could not export its trace, which has no JSON form for those values.
func TestCheckpointNonFiniteEventRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []obs.EventState{
			{Name: "ts", Ph: 'X', TS: bad, Dur: 1},
			{Name: "dur", Ph: 'X', TS: 1, Dur: bad},
			{Name: "instant", Ph: 'i', TS: bad},
		} {
			s := testSnapshot()
			s.Obs.Events = append(s.Obs.Events, e)
			if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("event %s = %v: want ErrCorrupt, got %v", e.Name, bad, err)
			}
		}
	}
}

// TestCheckpointEncodeViewMatchesEncode: encoding the obs section from a
// live recorder's View gives the bytes Encode gives for the State the
// recorder exports, before and after the recorder grows new names (which
// its kept name order must place), renames a process and a thread and
// loads a state again, and ClusterLen is the length of the cluster
// section.
func TestCheckpointEncodeViewMatchesEncode(t *testing.T) {
	s := testSnapshot()
	r := obs.New()
	r.LoadState(s.Obs)
	check := func(stage string) {
		t.Helper()
		got := EncodeView(s, r.View())
		s.Obs = r.State()
		want := Encode(s)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeView(s, r.View()) != Encode(s) with s.Obs = r.State()", stage)
		}
		if n := len(want) - headerLen - obsLen(s.Obs.View()) - crcLen; ClusterLen(s) != n {
			t.Errorf("%s: ClusterLen %d, cluster section %d bytes", stage, ClusterLen(s), n)
		}
	}
	check("loaded")
	// Names that sort before, between and after the loaded ones.
	r.Counter("a.first").Inc()
	r.Counter("g.middle").Add(3)
	r.Gauge("z.last").Set(-1)
	r.Histogram("b.hist", 0, 2, 4).Add(3)
	r.Series("a.series", 7).Add(650, 1)
	r.SampleSeries(1950)
	r.InstantCycles(1, 2, "checkpoint.capture", 1950)
	r.SpanCycles(2, 1, "early", 0, 10)
	r.SetProcessName(0, "chip 0")
	r.SetThreadName(0, 3, "mxm")
	check("grown")
	// The kept process and thread order survives a repeated name and
	// follows a renamed one.
	r.SetThreadName(0, 3, "mxm")
	check("repeated")
	r.SetProcessName(2, "fabric, renamed")
	r.SetThreadName(2, 4, "captures")
	check("renamed")
	r.LoadState(testSnapshot().Obs)
	check("reloaded")
}
