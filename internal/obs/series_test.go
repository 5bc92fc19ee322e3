package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesAddAndOverwrite(t *testing.T) {
	r := New()
	s := r.Series("runtime.inflight", PidFabric)
	s.Add(650, 3)
	s.Add(1300, 5)
	if len(s.samples) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.samples))
	}
	// Re-sampling the same barrier overwrites, never duplicates.
	s.Add(1300, 7)
	if len(s.samples) != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", len(s.samples))
	}
	got := s.samples
	if got[1].Cycle != 1300 || got[1].Value != 7 {
		t.Fatalf("last sample = %+v, want {1300 7}", got[1])
	}
	if s.pid != PidFabric {
		t.Fatalf("Pid = %d, want %d", s.pid, PidFabric)
	}
	// Same name+labels resolves to the same series; pid argument only
	// matters on first creation.
	if r.Series("runtime.inflight", PidHost) != s {
		t.Error("second resolve returned a different series")
	}
	if r.NumSeries() != 1 {
		t.Errorf("NumSeries = %d, want 1", r.NumSeries())
	}
}

func TestSampleSeriesSnapshotsCountersAndGauges(t *testing.T) {
	r := New()
	c := r.Counter("tsp.busy_cycles", Li("chip", 0), L("unit", "mxm"))
	g := r.Gauge("runtime.mailbox_depth", Li("chip", 1))
	c.Add(120)
	g.Set(4)
	r.SampleSeries(650)
	c.Add(80)
	g.Set(0)
	r.SampleSeries(1300)

	st := r.State()
	cs, ok := st.Series["tsp.busy_cycles{chip=0,unit=mxm}"]
	if !ok {
		t.Fatalf("counter series missing; have %v", keysOf(st.Series))
	}
	want := []SamplePoint{{Cycle: 650, Value: 120}, {Cycle: 1300, Value: 200}}
	if len(cs.Samples) != 2 || cs.Samples[0] != want[0] || cs.Samples[1] != want[1] {
		t.Errorf("counter samples = %v, want %v", cs.Samples, want)
	}
	gs := st.Series["runtime.mailbox_depth{chip=1}"]
	if len(gs.Samples) != 2 || gs.Samples[1].Value != 0 {
		t.Errorf("gauge samples = %v", gs.Samples)
	}
}

// mapWalkSample samples the way SampleSeries once did: a walk of the
// counter and then the gauge map, each key looked up in the series map by
// string. The walk order within a map does not matter, because no two
// counters (or gauges) share a key.
func mapWalkSample(r *Recorder, cycle int64) {
	for k, c := range r.counters {
		r.Series(k, PidFabric).Add(cycle, c.v)
	}
	for k, g := range r.gauges {
		r.Series(k, PidFabric).Add(cycle, g.v)
	}
}

// TestSampleSeriesMatchesMapWalk drives two recorders through the same
// run, one sampling with SampleSeries and one with mapWalkSample, and
// requires the same state after every barrier: metrics registered between
// barriers, a counter and a gauge sharing one key (the gauge, sampled
// last, wins), a series made under a counter's key with another pid
// before the counter's first sample, a barrier sampled twice, and a
// LoadState of the recorder's own state mid-run.
func TestSampleSeriesMatchesMapWalk(t *testing.T) {
	drive := func(r *Recorder, sample func(*Recorder, int64)) []*State {
		var states []*State
		barrier := func(cycle int64) {
			sample(r, cycle)
			states = append(states, r.State())
		}
		busy := r.Counter("tsp.busy_cycles", Li("chip", 0))
		depth := r.Gauge("runtime.mailbox_depth", Li("chip", 0))
		busy.Add(5)
		depth.Set(2)
		barrier(1300)

		sent := r.Counter("c2c.frames_tx", Li("link", 3))
		inflight := r.Gauge("runtime.inflight_vectors")
		sent.Add(7)
		inflight.Set(4)
		busy.Add(1)
		barrier(2600)

		shared, sharedGauge := r.Counter("shared.key"), r.Gauge("shared.key")
		shared.Add(10)
		sharedGauge.Set(-3)
		late := r.Counter("serve.queue_depth", L("rate", "125000"))
		late.Add(9)
		r.Series("serve.queue_depth", PidHost, L("rate", "125000")).Add(900, 1)
		barrier(3900)

		busy.Add(2)
		sharedGauge.Set(8)
		barrier(3900)

		// A restored recorder has new handles; resolve them again.
		r.LoadState(r.State())
		busy = r.Counter("tsp.busy_cycles", Li("chip", 0))
		sharedGauge = r.Gauge("shared.key")
		busy.Add(4)
		sharedGauge.Set(1)
		r.Counter("c2c.frames_rx", Li("link", 3)).Add(6)
		r.Gauge("runtime.mailbox_depth", Li("chip", 1)).Set(3)
		barrier(5200)

		r.Counter("shared.key").Add(1)
		barrier(6500)
		return states
	}
	got := drive(New(), (*Recorder).SampleSeries)
	want := drive(New(), mapWalkSample)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("barrier %d: SampleSeries state\n%+v\nmap walk state\n%+v", i, got[i], want[i])
		}
	}
	shared := got[len(got)-1].Series["shared.key"].Samples
	if last := shared[len(shared)-1]; last != (SamplePoint{Cycle: 6500, Value: 1}) {
		t.Errorf("shared.key last sample %v, want the gauge's {6500 1}", last)
	}
	if pid := got[len(got)-1].Series["serve.queue_depth{rate=125000}"].Pid; pid != PidHost {
		t.Errorf("pre-made series pid %d, want %d", pid, PidHost)
	}
}

func keysOf(m map[string]SeriesState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSeriesNilSafe: every new handle and recorder method must be a no-op
// on nil, with zero allocations — the instrumented hot paths run with
// observability off in every benchmark.
func TestSeriesNilSafe(t *testing.T) {
	var r *Recorder
	var s *Series
	allocs := testing.AllocsPerRun(100, func() {
		s.Add(650, 1)
		_ = r.Series("x", PidHost)
		r.SetSeriesCadence(650)
		_ = r.SeriesCadence()
		_ = r.NumSeries()
		r.SampleSeries(650)
	})
	if allocs != 0 {
		t.Errorf("nil-handle series ops allocate %v allocs/op, want 0", allocs)
	}
	var buf bytes.Buffer
	if err := r.WriteSeries(&buf); err != nil {
		t.Fatalf("nil WriteSeries: %v", err)
	}
	if !strings.Contains(buf.String(), `"series":{}`) {
		t.Errorf("nil WriteSeries output = %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteSeriesCSV(&buf); err != nil {
		t.Fatalf("nil WriteSeriesCSV: %v", err)
	}
	if buf.String() != "series,pid,cycle,value\n" {
		t.Errorf("nil WriteSeriesCSV output = %q", buf.String())
	}
}

func TestSeriesCadenceClampsNegative(t *testing.T) {
	r := New()
	r.SetSeriesCadence(-5)
	if got := r.SeriesCadence(); got != 0 {
		t.Errorf("cadence = %d, want 0 after negative set", got)
	}
}

// TestWriteSeriesDeterministic: identical recorders produce byte-identical
// JSON and CSV dumps, the canonical key's commas are RFC 4180 quoted, and
// the JSON parses back to the recorded samples.
func TestWriteSeriesDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New()
		r.SetSeriesCadence(650)
		r.Counter("tsp.busy_cycles", Li("chip", 0), L("unit", "mxm")).Add(9)
		r.Counter("tsp.busy_cycles", Li("chip", 1), L("unit", "vxm")).Add(4)
		r.Gauge("runtime.inflight_vectors").Set(2)
		r.SampleSeries(650)
		return r
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := build().WriteSeries(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteSeries(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSON series dumps differ between identical recorders")
	}
	if err := build().WriteSeriesCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteSeriesCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("CSV series dumps differ between identical recorders")
	}

	var doc struct {
		Cadence int64 `json:"cadence"`
		Series  map[string]struct {
			Pid     int           `json:"pid"`
			Samples []SamplePoint `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(j1.Bytes(), &doc); err != nil {
		t.Fatalf("series JSON does not parse: %v", err)
	}
	if doc.Cadence != 650 || len(doc.Series) != 3 {
		t.Fatalf("cadence %d, %d series; want 650, 3", doc.Cadence, len(doc.Series))
	}
	s := doc.Series["tsp.busy_cycles{chip=0,unit=mxm}"]
	if len(s.Samples) != 1 || s.Samples[0] != (SamplePoint{Cycle: 650, Value: 9}) {
		t.Errorf("samples = %v", s.Samples)
	}

	// Labeled keys contain commas, so CSV rows must quote the name.
	if !strings.Contains(c1.String(), `"tsp.busy_cycles{chip=0,unit=mxm}",9001,650,9`) {
		t.Errorf("CSV missing quoted labeled row:\n%s", c1.String())
	}
	if !strings.HasPrefix(c1.String(), "series,pid,cycle,value\n") {
		t.Errorf("CSV missing header:\n%s", c1.String())
	}
}

// TestTraceCounterEvents: series render as Chrome "ph":"C" counter events
// after the data events, and a recorder without series emits none — so
// pre-series traces are byte-identical to before the subsystem existed.
func TestTraceCounterEvents(t *testing.T) {
	r := New()
	r.SpanCycles(0, 1, "work", 0, 650)
	r.Gauge("runtime.inflight_vectors").Set(3)
	r.SampleSeries(650)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	nc := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "C" {
			nc++
			if ev.Name != "runtime.inflight_vectors" || ev.Pid != PidFabric {
				t.Errorf("counter event = %+v", ev)
			}
			if !strings.Contains(string(ev.Args), `"value":3`) {
				t.Errorf("counter args = %s", ev.Args)
			}
		}
	}
	if nc != 1 {
		t.Fatalf("trace has %d counter events, want 1", nc)
	}
	// Counter events sort after the data events.
	if last := trace.TraceEvents[len(trace.TraceEvents)-1]; last.Ph != "C" {
		t.Errorf("last event ph = %q, want C", last.Ph)
	}

	bare := New()
	bare.SpanCycles(0, 1, "work", 0, 650)
	buf.Reset()
	if err := bare.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ph":"C"`) {
		t.Error("series-free trace contains counter events")
	}
}

// TestSeriesStateRoundTrip: State/LoadState carries series and cadence, so
// checkpoints restore the flight recorder mid-series.
func TestSeriesStateRoundTrip(t *testing.T) {
	r := New()
	r.SetSeriesCadence(1300)
	r.Counter("c2c.frames_tx", Li("link", 4)).Add(11)
	r.SampleSeries(1300)
	r.Series("serve.queue_depth", PidHost, L("rate", "125000")).Add(900, 7)

	r2 := New()
	r2.LoadState(r.State())
	if r2.SeriesCadence() != 1300 {
		t.Errorf("restored cadence = %d, want 1300", r2.SeriesCadence())
	}
	var a, b bytes.Buffer
	if err := r.WriteSeries(&a); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteSeries(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("series dump changed across State/LoadState:\n%s\nvs\n%s", a.String(), b.String())
	}
	// The restored series keeps accepting samples exactly where it left off.
	s := r2.Series("serve.queue_depth", PidHost, L("rate", "125000"))
	if len(s.samples) != 1 {
		t.Fatalf("restored serve series Len = %d, want 1", len(s.samples))
	}
	s.Add(1800, 9)
	if len(s.samples) != 2 {
		t.Errorf("append after restore: Len = %d, want 2", len(s.samples))
	}
}

// BenchmarkHotpathNilSeries pins the satellite guarantee: instrumented
// code paths holding nil series/recorder handles cost a branch, never an
// allocation.
func BenchmarkHotpathNilSeries(b *testing.B) {
	var r *Recorder
	var s *Series
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(int64(i), 1)
		r.SampleSeries(int64(i))
	}
}
