package obs

import (
	"io"
	"slices"
	"testing"
)

// sortNames is the pool a FuzzSortEvents event takes its name from, so
// equal keys down to the name are common.
var sortNames = []string{"", "a", "matmul", "matmul\x00", "send"}

// sortEvent reads one event: ph, pid and tid from small ranges, ts and
// dur through traceOps.f64 (NaN, ±0, ±Inf and repeated values among
// them), and a pooled name.
func (o *traceOps) sortEvent() EventState {
	e := EventState{Ph: "Xi"[o.u8()%2], Pid: int(o.u8() % 4), Tid: int(o.u8() % 3)}
	e.TS, e.Dur = o.f64(), o.f64()
	e.Name = sortNames[int(o.u8())%len(sortNames)]
	return e
}

// FuzzSortEvents is a differential test of sortEvents, which merges the
// ascending runs appended since the last export into the sorted prefix,
// against one slices.SortFunc by compareEvents of the same multiset. Each
// op is one byte, taken mod 7:
//
//	0 append a batch: a count (mod 32), then that many events
//	1 append a lockstep round: a count of chips (mod 8), a ts and an
//	  event; the event is recorded on pids 0.. at that ts, so the
//	  batch is one ascending run per round
//	2 View
//	3 State
//	4 WriteTrace (which fails on a non-finite time and sorts anyway)
//	5 LoadState of the current state with its events reversed
//	6 LoadState of the current state with its events rotated by a count
//
// After each View, State and WriteTrace the recorder's events, and the
// events the call returned, must equal the sorted multiset of every event
// appended. After a LoadState they must hold the same multiset.
func FuzzSortEvents(f *testing.F) {
	// A lockstep shape: rounds of chips at shared timestamps, with
	// exports between them and late events that interleave.
	f.Add([]byte{1, 7, 30, 0, 1, 2, 3, 5, 0, 1, 1, 7, 31, 0, 1, 2, 4, 5, 0, 2,
		0, 3, 0, 0, 1, 20, 0, 1, 1, 7, 32, 0, 1, 2, 3, 5, 0, 2, 1, 7, 31, 1, 0, 0, 3, 4, 3})
	// NaN, ±0 and ±Inf timestamps and durations beside equal keys.
	f.Add([]byte{0, 8, 0, 0, 0, 22, 1, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 23, 22, 2,
		1, 0, 0, 24, 0, 3, 0, 0, 0, 22, 22, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 2, 0, 1, 1,
		0, 1, 1, 1, 2, 4, 2, 5, 2, 6, 3, 3})
	// Exports and restores between every batch.
	f.Add([]byte{0, 5, 1, 2, 1, 40, 41, 2, 0, 3, 2, 30, 31, 1, 1, 0, 0, 50, 60, 4,
		0, 1, 1, 35, 36, 0, 6, 3, 2, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 2,
		0, 2, 0, 1, 0, 20, 0, 0, 1, 1, 1, 10, 0, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &traceOps{b: data}
		r := New()
		var all []EventState
		check := func(op string, got []EventState) {
			t.Helper()
			want := slices.Clone(all)
			slices.SortFunc(want, compareEvents)
			if !sameEvents(r.events, want) {
				t.Fatalf("after %s: recorder events %v, want %v", op, r.events, want)
			}
			if got != nil && !sameEvents(got, want) {
				t.Fatalf("%s returned events %v, want %v", op, got, want)
			}
		}
		sameMultiset := func(op string) {
			t.Helper()
			got, want := slices.Clone(r.events), slices.Clone(all)
			slices.SortFunc(got, compareEvents)
			slices.SortFunc(want, compareEvents)
			if !sameEvents(got, want) {
				t.Fatalf("after %s: recorder holds %v, want %v", op, got, want)
			}
		}
		for len(o.b) > 0 {
			switch o.u8() % 7 {
			case 0:
				for n := o.u8() % 32; n > 0; n-- {
					e := o.sortEvent()
					r.events = append(r.events, e)
					all = append(all, e)
				}
			case 1:
				chips, ts, e := int(o.u8()%8), o.f64(), o.sortEvent()
				for pid := range chips {
					e.Pid, e.TS = pid, ts
					r.events = append(r.events, e)
					all = append(all, e)
				}
			case 2:
				check("View", r.View().Events)
			case 3:
				check("State", r.State().Events)
			case 4:
				_ = r.WriteTrace(io.Discard) // a non-finite time fails the export, after the sort
				check("WriteTrace", nil)
			case 5:
				s := r.State()
				slices.Reverse(s.Events)
				r.LoadState(s)
				sameMultiset("LoadState")
			case 6:
				s := r.State()
				if len(s.Events) > 0 {
					k := int(o.u8()) % len(s.Events)
					s.Events = slices.Concat(s.Events[k:], s.Events[:k])
				}
				r.LoadState(s)
				sameMultiset("LoadState")
			}
		}
		check("View", r.View().Events)
	})
}
