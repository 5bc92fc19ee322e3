// Package obs is the deterministic observability layer of the
// reproduction: a label-keyed counter/gauge/histogram registry plus a
// typed trace sink that exports Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing) and a flat metrics JSON dump.
//
// Design constraints, in order:
//
//  1. Determinism. The paper's machine is fully knowable at compile time,
//     and so is this simulator — two runs of the same experiment with the
//     same seed must produce byte-identical dumps. Counters and gauges are
//     integer-valued, histograms carry integer bin counts (reusing
//     internal/stats.Histogram), all exported maps are emitted in sorted
//     key order, and trace events are sorted by compareEvents, a total
//     order, at export time. Sorting — rather than append order — keeps
//     dumps independent of the order the layers happened to record in.
//
//  2. One writer. A Recorder holds no locks: one goroutine records into a
//     given recorder, and exports it, at a time. Exports write too: State,
//     View and WriteTrace put the recorder's event list into compareEvents
//     order in place, sorting only the events appended since the last
//     export. View, WriteTrace, WriteSeriesCSV and SampleSeries sort the
//     kept name order of a registry that grew, and View and WriteTrace
//     sort the process and thread names again after one was added or
//     changed. The cluster runtime sends every recorded run to its
//     sequential executor, and serve sweeps its load levels in order. A
//     parallel traced run would need one recorder per component, merged
//     at export.
//
//  3. Zero cost when disabled. Every handle (*Counter, *Gauge,
//     *Histogram) and the *Recorder itself are nil-safe: methods on nil
//     receivers return immediately, so instrumented hot paths pay one
//     predictable branch when no recorder is attached. The benchmarks in
//     bench_test.go run with a nil recorder.
//
// Metric naming scheme (documented in README.md "Observability"):
// "<subsystem>.<noun>" in snake_case, optionally label-keyed, e.g.
// "tsp.instructions{chip=0,unit=mxm}" or "ssn.link_slots{link=L0012}".
// Subsystem prefixes in use: tsp, c2c, runtime, hac, ssn, collective,
// serve, bert.
//
// Trace convention: pid = chip (or one of the reserved pseudo-processes
// below), tid = functional unit index on that chip, or a link/host track.
package obs

import (
	"sort"
	"strconv"

	"repro/internal/clock"
	"repro/internal/stats"
)

// Reserved trace pids for event sources that are not a single chip.
const (
	// PidHost is the host-side serving/queueing timeline.
	PidHost = 9000
	// PidFabric is the C2C fabric/runtime timeline for events not
	// attributable to one chip.
	PidFabric = 9001
)

// TidLinkBase offsets link tracks above the functional-unit tracks of a
// chip pid: link i renders as tid TidLinkBase+i.
const TidLinkBase = 100

// Label is one key=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L builds a string label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// smallInts interns the decimal strings for common small values so the
// label constructors on hot instrumentation paths (per-chip, per-unit,
// per-link) never allocate or run fmt.
var smallInts = func() [1024]string {
	var s [1024]string
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

// Itoa formats an int, returning an interned string for small values.
func Itoa(v int) string {
	if v >= 0 && v < len(smallInts) {
		return smallInts[v]
	}
	return strconv.Itoa(v)
}

// Li builds an integer-valued label.
func Li(key string, value int) Label { return Label{Key: key, Value: Itoa(value)} }

// key canonicalizes a metric name with its labels: "name{k1=v1,k2=v2}"
// with label keys sorted, so the same logical metric always maps to the
// same registry entry and dumps sort stably.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s := name + "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=" + l.Value
	}
	return s + "}"
}

// Counter is a monotonically increasing integer. The nil counter is a
// valid no-op sink. Two call sites that resolve the same key share one
// counter, so their counts add up. It is a plain integer: only the one
// goroutine that records into its Recorder may add to it.
type Counter struct {
	v int64
	s *Series // the series SampleSeries feeds, resolved at its first sample
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a last-value-wins integer. The nil gauge is a valid no-op
// sink.
type Gauge struct {
	v int64
	s *Series // as Counter's
}

// Set records the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Histogram wraps a stats.Histogram behind a nil-safe handle. Like every
// handle it holds no lock: its Recorder's one writer adds to it.
type Histogram struct{ h *stats.Histogram }

// Add records a sample.
func (h *Histogram) Add(x float64) {
	if h != nil {
		h.h.Add(x)
	}
}

// Recorder is the registry and trace sink. The zero value of *Recorder
// (nil) is a fully functional no-op: every method checks the receiver, so
// instrumented code never needs its own guard for correctness — explicit
// `if rec != nil` guards exist only to skip argument construction on hot
// paths. Handle resolution (Counter/Gauge/Histogram) is expected on setup
// paths.
//
// A Recorder has one writer: one goroutine records into it or exports it
// at a time, and nothing in it is locked. Exports sort, so their bytes do
// not depend on the order that writer recorded in.
type Recorder struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   []EventState
	// sorted is the watermark of events: events[:sorted] are in
	// compareEvents order, left so by the last export (sortEvents).
	// buf and idx are the merge buffers sortEvents keeps between exports.
	sorted  int
	buf     []EventState
	idx     []int32
	procs   map[int]string
	threads map[[2]int]string
	// procOrder and threadOrder are procs and threads in ascending key
	// order for View and WriteTrace, nil from a name that is new or
	// changed until the next export sorts them again (state.go).
	procOrder   []Entry[int, string]
	threadOrder []Entry[[2]int, string]
	// series and the sampling cadence live in series.go; the cadence is
	// advisory metadata the cluster runtime reads to schedule SampleSeries
	// calls at heap barriers.
	series      map[string]*Series
	seriesEvery int64
	// byName keeps the string-keyed registries in ascending name order
	// for View and the series exports (keyOrder, state.go).
	byName struct {
		counters keyOrder[*Counter]
		gauges   keyOrder[*Gauge]
		hists    keyOrder[*Histogram]
		series   keyOrder[*Series]
	}
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		procs:    map[int]string{},
		threads:  map[[2]int]string{},
		series:   map[string]*Series{},
	}
}

// Counter returns (creating on first use) the counter for name+labels.
// Two call sites resolving the same canonical key share one counter, so
// aggregation across instances is the default. Returns nil on a nil
// recorder.
func (r *Recorder) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.byName.counters.add(k, c)
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name+labels.
func (r *Recorder) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.byName.gauges.add(k, g)
	}
	return g
}

// Histogram returns (creating on first use) a fixed-bin histogram for
// name+labels. The shape arguments are used only on first creation.
func (r *Recorder) Histogram(name string, origin, width float64, bins int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{h: stats.NewHistogram(origin, width, bins)}
		r.hists[k] = h
		r.byName.hists.add(k, h)
	}
	return h
}

// SetProcessName names a trace pid (rendered as the process row in
// Perfetto).
func (r *Recorder) SetProcessName(pid int, name string) {
	if r == nil {
		return
	}
	if old, ok := r.procs[pid]; !ok || old != name {
		r.procs[pid] = name
		r.procOrder = nil
	}
}

// SetThreadName names a (pid, tid) track.
func (r *Recorder) SetThreadName(pid, tid int, name string) {
	if r == nil {
		return
	}
	k := [2]int{pid, tid}
	if old, ok := r.threads[k]; !ok || old != name {
		r.threads[k] = name
		r.threadOrder = nil
	}
}

// SpanUS records a complete span with microsecond start and duration.
func (r *Recorder) SpanUS(pid, tid int, name string, startUS, durUS float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, EventState{Name: name, Ph: 'X', Pid: pid, Tid: tid, TS: startUS, Dur: durUS})
}

// SpanCycles records a complete span given in 900 MHz core cycles.
func (r *Recorder) SpanCycles(pid, tid int, name string, startCycle, durCycles int64) {
	r.SpanUS(pid, tid, name, clock.USOfCycles(startCycle), clock.USOfCycles(durCycles))
}

// InstantUS records an instant event at a microsecond timestamp.
func (r *Recorder) InstantUS(pid, tid int, name string, tsUS float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, EventState{Name: name, Ph: 'i', Pid: pid, Tid: tid, TS: tsUS})
}

// InstantCycles records an instant event at a core-cycle timestamp.
func (r *Recorder) InstantCycles(pid, tid int, name string, cycle int64) {
	r.InstantUS(pid, tid, name, clock.USOfCycles(cycle))
}

// NumEvents returns how many trace events have been recorded.
func (r *Recorder) NumEvents() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}
