package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/clock"
)

// traceEvent is the Chrome trace-event JSON wire form. See
// the Trace Event Format spec; Perfetto and chrome://tracing load it.
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// traceFile is the object form of the trace format: an event array plus
// display hints.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace exports the recorded events as Chrome trace-event JSON.
// Output is deterministic: metadata events sort by pid/tid, data events
// sort by compareEvents, a total order, so the dump does not depend on
// the order the recorder's one writer appended them in. The sort runs on
// a copy and leaves the recorder as it was.
// Timestamps are microseconds, the format's native unit.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	out := traceFile{DisplayTimeUnit: "ns", TraceEvents: []traceEvent{}}
	// Metadata: process and thread names, sorted for stable output.
	pids := make([]int, 0, len(r.procs))
	for pid := range r.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		args, _ := json.Marshal(map[string]string{"name": r.procs[pid]}) // a string map always encodes
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: args,
		})
	}
	tkeys := make([][2]int, 0, len(r.threads))
	for k := range r.threads {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i][0] != tkeys[j][0] {
			return tkeys[i][0] < tkeys[j][0]
		}
		return tkeys[i][1] < tkeys[j][1]
	})
	for _, k := range tkeys {
		args, _ := json.Marshal(map[string]string{"name": r.threads[k]})
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: k[0], Tid: k[1], Args: args,
		})
	}
	events := slices.Clone(r.events)
	slices.SortFunc(events, compareEvents)
	for _, e := range events {
		te := traceEvent{Name: e.Name, Ph: string(e.Ph), Ts: e.TS, Pid: e.Pid, Tid: e.Tid}
		if e.Ph == 'X' {
			d := e.Dur
			te.Dur = &d
		}
		if e.Ph == 'i' {
			te.S = "t" // thread-scoped instant
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	// Counter tracks: one "ph":"C" event per series sample, so Perfetto
	// renders live utilization lanes next to the spans. Grouped by sorted
	// series name, samples in cycle order — a deterministic tail that is
	// absent entirely when no series were recorded, keeping pre-series
	// traces byte-identical.
	snames := make([]string, 0, len(r.series))
	for k := range r.series {
		snames = append(snames, k)
	}
	sort.Strings(snames)
	for _, k := range snames {
		s := r.series[k]
		for _, p := range s.samples {
			args := json.RawMessage(fmt.Sprintf(`{"value":%d}`, p.Value))
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: k, Ph: "C", Ts: clock.USOfCycles(p.Cycle), Pid: s.pid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// histDump is the metrics-JSON form of one histogram: integer bin counts
// over an explicit shape, so the dump is bit-identical across runs.
type histDump struct {
	Origin    float64 `json:"origin"`
	Width     float64 `json:"width"`
	Bins      int     `json:"bins"`
	Total     int64   `json:"total"`
	Underflow int64   `json:"underflow"`
	Overflow  int64   `json:"overflow"`
	Counts    []int64 `json:"counts"`
}

// metricsFile is the flat metrics dump. encoding/json emits map keys in
// sorted order, which (with integer values) makes the dump deterministic.
type metricsFile struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]histDump `json:"histograms"`
}

// WriteMetrics exports every registered counter, gauge, and histogram as
// a flat JSON document keyed by canonical metric name.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	out := metricsFile{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]histDump{},
	}
	if r != nil {
		for k, c := range r.counters {
			out.Counters[k] = c.v
		}
		for k, g := range r.gauges {
			out.Gauges[k] = g.v
		}
		for k, h := range r.hists {
			sh := h.h
			d := histDump{
				Origin:    sh.BinStart(0),
				Width:     sh.Width(),
				Bins:      sh.Bins(),
				Total:     sh.Total(),
				Underflow: sh.Underflow(),
				Overflow:  sh.Overflow(),
				Counts:    make([]int64, sh.Bins()),
			}
			for i := 0; i < sh.Bins(); i++ {
				d.Counts[i] = sh.Count(i)
			}
			out.Histograms[k] = d
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTraceFile writes the trace to a file path.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetricsFile writes the metrics dump to a file path.
func (r *Recorder) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seriesDump is the series-JSON form of one series.
type seriesDump struct {
	Pid     int           `json:"pid"`
	Samples []SamplePoint `json:"samples"`
}

// seriesFile is the series export document: the sampling cadence plus
// every series keyed by canonical metric name. encoding/json emits map
// keys in sorted order, which (with integer samples) makes the dump
// deterministic.
type seriesFile struct {
	Cadence int64                 `json:"cadence"`
	Series  map[string]seriesDump `json:"series"`
}

// WriteSeries exports every recorded time series as a flat JSON document
// keyed by canonical metric name, samples in cycle order.
func (r *Recorder) WriteSeries(w io.Writer) error {
	out := seriesFile{Series: map[string]seriesDump{}}
	if r != nil {
		out.Cadence = r.seriesEvery
		for k, s := range r.series {
			out.Series[k] = seriesDump{Pid: s.pid, Samples: s.samples}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteSeriesCSV exports the series as CSV with a fixed header
// (series,pid,cycle,value), rows sorted by series name then sample
// order — a shape spreadsheet tooling ingests directly.
func (r *Recorder) WriteSeriesCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("series,pid,cycle,value\n")
	if r != nil {
		names := make([]string, 0, len(r.series))
		for k := range r.series {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			// Canonical keys with labels contain commas; RFC 4180 quoting
			// keeps the rows machine-parseable.
			name := k
			if strings.ContainsAny(name, ",\"") {
				name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
			}
			s := r.series[k]
			for _, p := range s.samples {
				fmt.Fprintf(&b, "%s,%d,%d,%d\n", name, s.pid, p.Cycle, p.Value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSeriesFile writes the series export to a file path, choosing CSV
// when the path ends in ".csv" and JSON otherwise.
func (r *Recorder) WriteSeriesFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".csv") {
		werr = r.WriteSeriesCSV(f)
	} else {
		werr = r.WriteSeries(f)
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}
