package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNilRecorderIsSafe exercises every method on a nil recorder and nil
// handles: the zero value must be a complete no-op.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	c := r.Counter("x", L("a", "b"))
	c.Add(3)
	c.Inc()
	g := r.Gauge("y")
	g.Set(7)
	h := r.Histogram("z", 0, 1, 10)
	h.Add(5)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil recorder handed out a live handle")
	}
	r.SpanUS(0, 0, "s", 0, 1)
	r.SpanCycles(0, 0, "s", 0, 900)
	r.InstantUS(0, 0, "i", 0)
	r.InstantCycles(0, 0, "i", 900)
	r.SetProcessName(0, "p")
	r.SetThreadName(0, 0, "t")
	if r.NumEvents() != 0 {
		t.Fatal("nil recorder recorded events")
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
	buf.Reset()
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
}

// TestCounterAggregation checks that the same canonical key (regardless of
// label order) resolves to one shared counter.
func TestCounterAggregation(t *testing.T) {
	r := New()
	a := r.Counter("c2c.frames_tx", L("chip", "0"), L("link", "3"))
	b := r.Counter("c2c.frames_tx", L("link", "3"), L("chip", "0"))
	if a != b {
		t.Fatal("label order changed counter identity")
	}
	a.Add(2)
	b.Inc()
	if a.v != 3 {
		t.Fatalf("aggregate = %d, want 3", a.v)
	}
	if r.Counter("c2c.frames_tx") == a {
		t.Fatal("unlabeled counter aliased the labeled one")
	}
}

// TestTraceShape checks the exported trace is the Chrome trace-event
// format: an array of {name, ph, ts, pid, tid} objects with metadata
// naming the tracks.
func TestTraceShape(t *testing.T) {
	r := New()
	r.SetProcessName(0, "tsp0")
	r.SetThreadName(0, 3, "mxm")
	r.SpanCycles(0, 3, "matmul", 900, 1800) // 1 µs @ 900 MHz, 2 µs long
	r.InstantCycles(0, 3, "fault", 4500)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(tf.TraceEvents) != 4 { // 2 metadata + span + instant
		t.Fatalf("got %d events, want 4", len(tf.TraceEvents))
	}
	span := tf.TraceEvents[2]
	if span.Name != "matmul" || span.Ph != "X" || span.Ts != 1 || span.Dur == nil || *span.Dur != 2 {
		t.Fatalf("span mis-encoded: %+v", span)
	}
	inst := tf.TraceEvents[3]
	if inst.Ph != "i" || inst.Ts != 5 || inst.Pid != 0 || inst.Tid != 3 {
		t.Fatalf("instant mis-encoded: %+v", inst)
	}
}

// TestTraceHostileNames: process and thread names are encoded as JSON
// strings, so control bytes, invalid UTF-8, HTML metacharacters and
// U+2028 still export a valid trace, and every valid-UTF-8 name decodes
// back unchanged.
func TestTraceHostileNames(t *testing.T) {
	names := []string{"\x01ctl", "bad\xffbyte", "<&>", "line\u2028sep", `quote"back\\`}
	r := New()
	for i, name := range names {
		r.SetProcessName(i, name)
		r.SetThreadName(i, 1, name)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(tf.TraceEvents) != 2*len(names) {
		t.Fatalf("got %d metadata events, want %d", len(tf.TraceEvents), 2*len(names))
	}
	for _, ev := range tf.TraceEvents {
		want := names[ev.Pid]
		if !utf8.ValidString(want) {
			want = strings.ToValidUTF8(want, "\uFFFD")
		}
		if ev.Args.Name != want {
			t.Errorf("%s pid %d: name %q, want %q", ev.Name, ev.Pid, ev.Args.Name, want)
		}
	}
}

// TestMetricsShape checks the flat dump carries integer counters/gauges
// and full histogram bin counts.
func TestMetricsShape(t *testing.T) {
	r := New()
	r.Counter("tsp.instructions", Li("chip", 0), L("unit", "mxm")).Add(42)
	r.Gauge("bert.estimate_cycles").Set(12345)
	h := r.Histogram("serve.latency_us", 0, 5, 4)
	h.Add(2)  // bin 0
	h.Add(12) // bin 2
	h.Add(99) // overflow

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Total    int64   `json:"total"`
			Overflow int64   `json:"overflow"`
			Counts   []int64 `json:"counts"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &mf); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if mf.Counters["tsp.instructions{chip=0,unit=mxm}"] != 42 {
		t.Fatalf("counter missing: %v", mf.Counters)
	}
	if mf.Gauges["bert.estimate_cycles"] != 12345 {
		t.Fatalf("gauge missing: %v", mf.Gauges)
	}
	hd, ok := mf.Histograms["serve.latency_us"]
	if !ok {
		t.Fatalf("histogram missing: %v", mf.Histograms)
	}
	if hd.Total != 3 || hd.Overflow != 1 || len(hd.Counts) != 4 || hd.Counts[0] != 1 || hd.Counts[2] != 1 {
		t.Fatalf("histogram mis-dumped: %+v", hd)
	}
}

// TestDeterministicDumps replays the same recording twice and requires
// byte-identical trace and metrics output.
func TestDeterministicDumps(t *testing.T) {
	record := func() *Recorder {
		r := New()
		for pid := 4; pid >= 0; pid-- { // deliberately unsorted creation
			r.SetProcessName(pid, "tsp")
			r.SetThreadName(pid, 2, "vxm")
			r.Counter("tsp.instructions", Li("chip", pid)).Add(int64(pid))
			r.SpanCycles(pid, 2, "vadd", int64(pid)*10, 7)
		}
		r.Histogram("h", 0, 1, 8).Add(3.5)
		return r
	}
	var t1, t2, m1, m2 bytes.Buffer
	if err := record().WriteTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("trace dumps differ between identical recordings")
	}
	if err := record().WriteMetrics(&m1); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteMetrics(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("metrics dumps differ between identical recordings")
	}
}

// TestGlobalDefault checks Set/Get wiring.
func TestGlobalDefault(t *testing.T) {
	if Get() != nil {
		t.Fatal("global recorder unexpectedly set")
	}
	r := New()
	Set(r)
	if Get() != r {
		t.Fatal("Get did not return the installed recorder")
	}
	Set(nil)
	if Get() != nil {
		t.Fatal("Set(nil) did not clear")
	}
}

// TestHistogramWidthExported: the metrics dump and State carry a
// histogram's own width. Worked out as BinStart(1) - BinStart(0), a width
// of 1 at origin 1e20 rounds to 0, a shape checkpoint.Decode rejects and
// LoadState cannot rebuild.
func TestHistogramWidthExported(t *testing.T) {
	r := New()
	r.Histogram("h", 1e20, 1, 4).Add(1e20)
	if w := r.State().Hists["h"].Width; w != 1 {
		t.Errorf("State width = %v, want 1", w)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m struct {
		Histograms map[string]struct{ Width float64 } `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if w := m.Histograms["h"].Width; w != 1 {
		t.Errorf("metrics width = %v, want 1", w)
	}
}

// TestTraceOrderIgnoresAppendOrder records one event multiset in several
// shuffled orders. The multiset holds events that tie on every value and
// differ only in the sign of a zero ts or dur, so only a total sort order
// makes the exports agree: WriteTrace bytes and State's event order must be
// the same for every shuffle.
//
// Each trial also records the multiset in batches with exports between
// them, so the exports merge new events into the prefix the last one
// sorted: a batch that interleaves with the prefix, one that sorts before
// all of it, and one appended after LoadState of an unsorted list. Those
// dumps must equal a fresh recorder's too.
func TestTraceOrderIgnoresAppendOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var events []EventState
	for _, ts := range []float64{0, negZero, 1.5} {
		for _, dur := range []float64{0, negZero, 2} {
			for _, name := range []string{"a", "b"} {
				events = append(events,
					EventState{Name: name, Ph: 'X', Pid: 1, Tid: 2, TS: ts, Dur: dur},
					EventState{Name: name, Ph: 'X', Pid: 1, Tid: 2, TS: ts, Dur: dur},
					EventState{Name: name, Ph: 'i', Pid: 0, Tid: 2, TS: ts})
			}
		}
	}
	sorted := slices.Clone(events)
	slices.SortFunc(sorted, compareEvents)
	third := len(sorted) / 3
	var prefix, inside []EventState
	for i := third; i < 2*third; i++ {
		if i%2 == 0 {
			prefix = append(prefix, sorted[i])
		} else {
			inside = append(inside, sorted[i])
		}
	}
	before, after := slices.Clone(sorted[:third]), slices.Clone(sorted[2*third:])

	rng := rand.New(rand.NewPCG(1, 2))
	shuffle := func(es []EventState) {
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	}
	record := func(r *Recorder, es []EventState) {
		for _, e := range es {
			if e.Ph == 'X' {
				r.SpanUS(e.Pid, e.Tid, e.Name, e.TS, e.Dur)
			} else {
				r.InstantUS(e.Pid, e.Tid, e.Name, e.TS)
			}
		}
	}
	dumps := func(r *Recorder) (trace, state string) {
		var tr bytes.Buffer
		if err := r.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return tr.String(), fmt.Sprint(r.State().Events)
	}
	var wantTrace, wantState string
	for trial := 0; trial < 8; trial++ {
		shuffle(events)
		r := New()
		record(r, events)
		tr, st := dumps(r)
		if trial == 0 {
			wantTrace, wantState = tr, st
			if !strings.Contains(wantTrace, `"ts":-0`) || !strings.Contains(wantTrace, `"dur":-0`) {
				t.Fatal("trace lost the sign of a zero")
			}
		}
		if tr != wantTrace {
			t.Fatalf("shuffle %d: WriteTrace bytes differ", trial)
		}
		if st != wantState {
			t.Fatalf("shuffle %d: State event order differs", trial)
		}

		for _, b := range [][]EventState{prefix, inside, before, after} {
			shuffle(b)
		}
		r = New()
		record(r, prefix)
		r.State()
		record(r, inside)
		if err := r.WriteTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
		record(r, before)
		s := r.State()
		shuffle(s.Events)
		r.LoadState(s) // over a watermark that covers every event
		record(r, after)
		if tr, st := dumps(r); tr != wantTrace || st != wantState {
			t.Fatalf("shuffle %d: dumps after batched exports differ from a fresh recorder's", trial)
		}
	}
}
