package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/clock"
)

// The encoding/json trace writer WriteTrace replaced, kept as the oracle
// FuzzWriteTrace compares it with. It reads the recorder without changing
// it: the events are sorted on a copy.

// traceEvent is the Chrome trace-event JSON wire form.
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

func writeTraceJSON(r *Recorder, w io.Writer) error {
	out := traceFile{DisplayTimeUnit: "ns", TraceEvents: []traceEvent{}}
	pids := make([]int, 0, len(r.procs))
	for pid := range r.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		args, _ := json.Marshal(map[string]string{"name": r.procs[pid]})
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
			te.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
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
	return json.NewEncoder(w).Encode(out)
}
