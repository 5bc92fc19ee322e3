package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/clock"
)

// traceBufPool keeps WriteTrace's output buffer between calls, the way
// encoding/json pools its encode buffer. A trace is megabytes: a buffer
// per call would be regrown from nothing, and dropping the pool let the
// heap shrink enough that the pages it returned were faulted back in by
// the next cluster set-up (EXPERIMENTS.md "Trace export cost").
var traceBufPool sync.Pool // of *[]byte

// WriteTrace exports the recorded events as Chrome trace-event JSON: an
// object with a traceEvents array and a displayTimeUnit hint, then a
// newline. Output is deterministic: metadata events sort by pid/tid, data
// events by compareEvents, a total order, so the dump does not depend on
// the order the recorder's one writer appended them in. The sort runs in
// place on the recorder's event list (sortEvents), so WriteTrace writes
// to the recorder and falls under the one-writer rule.
//
// The bytes are those encoding/json writes for the same document, HTML
// escaping included, built by appending into one pooled buffer and handed
// to w in one Write. A NaN or infinite timestamp or duration has no JSON
// form: WriteTrace then returns an error and writes nothing.
// Timestamps are microseconds, the format's native unit.
//
// Each distinct timestamp is formatted about once per call: an event
// whose ts has the same bits as the event before it (chips in lockstep)
// copies that event's bytes, and series samples, which barrier sampling
// puts on one grid of cycles, copy the bytes of the first sample at their
// cycle. The pooled buffer and its growth stay as they are: a smaller
// heap lets the runtime return pages that the next cluster set-up faults
// back in (traceBufPool).
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	bp, _ := traceBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer traceBufPool.Put(bp)
	b, err := r.appendTrace((*bp)[:0])
	*bp = b[:0]
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendTrace appends the trace document to b.
func (r *Recorder) appendTrace(b []byte) ([]byte, error) {
	b = append(b, `{"traceEvents":[`...)
	first := len(b) // events after the first are preceded by a comma
	// Metadata: process and thread names, sorted for stable output.
	for _, p := range r.procEntries() {
		b = append(openEvent(b, first), `"process_name","ph":"M","ts":0`...)
		b = appendNameArgs(appendPidTid(b, p.Key, 0), p.Val)
	}
	for _, t := range r.threadEntries() {
		b = append(openEvent(b, first), `"thread_name","ph":"M","ts":0`...)
		b = appendNameArgs(appendPidTid(b, t.Key[0], t.Key[1]), t.Val)
	}
	r.sortEvents()
	// Chips in lockstep record events at the same cycles, which sort next
	// to each other: an event whose ts has the bits of the one before
	// copies its bytes, b[tsAt:tsEnd]. The bits, not ==: -0 and +0
	// compare equal, sort together and print differently.
	var tsBits uint64
	tsAt, tsEnd := 0, 0
	for _, e := range r.events {
		if !finite(e.TS) || e.Ph == 'X' && !finite(e.Dur) {
			return b, fmt.Errorf("obs: trace event %q at ts %v, dur %v: JSON has no form for NaN or ±Inf", e.Name, e.TS, e.Dur)
		}
		b = appendString(openEvent(b, first), e.Name)
		b = appendString(append(b, `,"ph":`...), string(e.Ph))
		b = append(b, `,"ts":`...)
		if bits := math.Float64bits(e.TS); tsEnd != 0 && bits == tsBits {
			b = append(b, b[tsAt:tsEnd]...)
		} else {
			tsAt = len(b)
			b = appendFloat(b, e.TS)
			tsBits, tsEnd = bits, len(b)
		}
		if e.Ph == 'X' {
			b = appendFloat(append(b, `,"dur":`...), e.Dur)
		}
		b = appendPidTid(b, e.Pid, e.Tid)
		if e.Ph == 'i' {
			b = append(b, `,"s":"t"`...) // thread-scoped instant
		}
		b = append(b, '}')
	}
	// Counter tracks: one "ph":"C" event per series sample, so Perfetto
	// renders live utilization lanes next to the spans. Grouped by sorted
	// series name, samples in cycle order — a deterministic tail that is
	// absent entirely when no series were recorded, keeping pre-series
	// traces byte-identical. Barrier sampling puts every series on one
	// grid of cycles, so each cycle's ts is formatted once: at[cycle]
	// holds where in b it was written.
	var name []byte // a series' name, escaped once for all its samples
	at := map[int64][2]int{}
	for _, e := range r.byName.series.sorted() {
		s := e.Val
		name = appendString(name[:0], e.Key)
		for _, p := range s.samples {
			b = append(append(openEvent(b, first), name...), `,"ph":"C","ts":`...)
			if ts, ok := at[p.Cycle]; ok {
				b = append(b, b[ts[0]:ts[1]]...)
			} else {
				n := len(b)
				b = appendFloat(b, clock.USOfCycles(p.Cycle))
				at[p.Cycle] = [2]int{n, len(b)}
			}
			b = append(appendPidTid(b, s.pid, 0), `,"args":{"value":`...)
			b = append(strconv.AppendInt(b, p.Value, 10), "}}"...)
		}
	}
	return append(b, `],"displayTimeUnit":"ns"}`+"\n"...), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// openEvent opens an event object up to its name's value, preceded by a
// comma unless b holds no event after first.
func openEvent(b []byte, first int) []byte {
	if len(b) > first {
		b = append(b, ',')
	}
	return append(b, `{"name":`...)
}

func appendPidTid(b []byte, pid, tid int) []byte {
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// appendNameArgs closes a metadata event with its {"name":…} args.
func appendNameArgs(b []byte, name string) []byte {
	return append(appendString(append(b, `,"args":{"name":`...), name), "}}"...)
}

// appendFloat appends a finite float as encoding/json does: like
// strconv's shortest 'f' form, or 'e' form with an unpadded exponent
// below 1e-6 and from 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: control bytes, '"', '\\', '<', '>' and '&' escaped,
// U+2028 and U+2029 escaped, and each byte of invalid UTF-8 written as
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
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
// order — a shape spreadsheet tooling ingests directly. The names come
// from the recorder's kept order, which a grown registry re-sorts in
// place, so WriteSeriesCSV falls under the one-writer rule.
func (r *Recorder) WriteSeriesCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("series,pid,cycle,value\n")
	if r != nil {
		for _, e := range r.byName.series.sorted() {
			// Canonical keys with labels contain commas; RFC 4180 quoting
			// keeps the rows machine-parseable.
			name := e.Key
			if strings.ContainsAny(name, ",\"") {
				name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
			}
			s := e.Val
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
