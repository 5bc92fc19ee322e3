// Recorder state capture and restore for checkpointing.
//
// A checkpoint's headline invariant — restore-then-run-to-end is
// byte-identical to the straight run — extends to the observability dumps,
// so a snapshot must carry the recorder's whole registry: counter and
// gauge values, histogram bin contents, the trace-event multiset, and the
// process/thread name tables. Events are captured in export order (the
// same total order WriteTrace sorts by), which makes the captured form
// independent of the order they were appended in.
//
// State copies all of it. A checkpoint capture instead encodes a View:
// the same state laid out in encoding order, sharing the recorder's event
// list and series samples and taking names from the order the recorder
// keeps, so a capture costs the bytes it writes, not a copy and a sort of
// the whole history.
package obs

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/stats"
)

// HistState is one histogram's captured shape and contents.
type HistState struct {
	Origin    float64
	Width     float64
	Underflow int64
	Overflow  int64
	Counts    []int64
}

// EventState is one trace event, as the recorder holds it and as a
// checkpoint carries it. TS and Dur are microseconds (the Chrome
// trace-event native unit).
type EventState struct {
	Name string
	Ph   byte // 'X' complete span, 'i' instant
	Pid  int
	Tid  int
	TS   float64
	Dur  float64
}

// SeriesState is one time series' captured samples and display pid.
type SeriesState struct {
	Pid     int
	Samples []SamplePoint
}

// State is a point-in-time copy of a recorder's registry and trace sink.
type State struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistState
	Events   []EventState
	Procs    map[int]string
	Threads  map[[2]int]string
	// Series and the sampling cadence round-trip through checkpoints so a
	// restored run's exports match the straight run byte for byte.
	Series        map[string]SeriesState
	SeriesCadence int64
}

// compareEvents is the export order of trace events: (ts, pid, tid, ph,
// name, dur), then the bit patterns of ts and dur. The last key makes the
// order total, so events that compare equal are bit-identical and any sort
// of any permutation gives the same sequence: -0 and +0, which compare
// equal as numbers, still sort apart. WriteTrace and State both sort by it.
// Because the order is total, sorting in parts and merging (sortEvents)
// gives the same sequence as one sort of the whole list.
func compareEvents(a, b EventState) int {
	if c := cmp.Compare(a.TS, b.TS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pid, b.Pid); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tid, b.Tid); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Ph, b.Ph); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(a.TS), math.Float64bits(b.TS)); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a.Dur), math.Float64bits(b.Dur))
}

// sortEvents puts the recorder's event list into compareEvents order in
// place. Events below the watermark are already in order from the last
// export, so it orders only the events appended since and merges them in.
// The run that follows the watermark in order joins it with one compare
// per event. The rest arrive as ascending runs: the chips of a lockstep
// run record in turn, each in time order (the recorded ring's 577-event
// batches hold about 90 runs). So they are merged run by run rather than
// sorted (mergeRuns), and a binary search finds where they start to
// interleave with the prefix.
func (r *Recorder) sortEvents() {
	ev := r.events
	n := r.sorted
	for n < len(ev) && (n == 0 || compareEvents(ev[n-1], ev[n]) <= 0) {
		n++
	}
	if n < len(ev) {
		r.mergeRuns(ev[n:])
		p, _ := slices.BinarySearchFunc(ev[:n], ev[n], compareEvents)
		r.mergeEvents(ev[p:], n-p)
	}
	r.sorted = len(ev)
}

// mergeRuns sorts ev, a list of ascending runs, by merging the runs
// pairwise, pass by pass. The passes merge positions, not events: they
// move 4-byte indices between the halves of the recorder's index buffer,
// and each event moves once at the end, through its event buffer.
func (r *Recorder) mergeRuns(ev []EventState) {
	var runs [256]int // room for a lockstep run's tail on the stack
	bounds := append(runs[:0], 0)
	for i := 1; i < len(ev); i++ {
		if compareEvents(ev[i-1], ev[i]) > 0 {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(ev))
	if len(bounds) == 2 {
		return
	}
	r.idx = slices.Grow(r.idx[:0], 2*len(ev))[:2*len(ev)]
	src, dst := r.idx[:len(ev)], r.idx[len(ev):]
	for i := range src {
		src[i] = int32(i)
	}
	for len(bounds) > 2 {
		next := bounds[:1] // written behind the reads
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, hi := bounds[i], bounds[i+1]
			if i+2 < len(bounds) {
				mid := hi
				hi = bounds[i+2]
				mergeIndices(ev, dst[lo:hi], src[lo:mid], src[mid:hi])
			} else {
				copy(dst[lo:hi], src[lo:hi])
			}
			next = append(next, hi)
		}
		bounds, src, dst = next, dst, src
	}
	r.buf = append(r.buf[:0], ev...)
	for k, i := range src {
		ev[k] = r.buf[i]
	}
}

// mergeIndices merges a and b, indices of ev in ascending event order,
// into out, which is exactly as long as both.
func mergeIndices(ev []EventState, out, a, b []int32) {
	i, j := 0, 0
	for k := range out {
		if j == len(b) || i < len(a) && compareEvents(ev[b[j]], ev[a[i]]) >= 0 {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
	}
}

// mergeEvents merges the sorted runs ev[:m] and ev[m:] in place. Only the
// first run is copied out, into the recorder's buffer: the merge writes
// forward, never past the next unread event of the second.
func (r *Recorder) mergeEvents(ev []EventState, m int) {
	r.buf = append(r.buf[:0], ev[:m]...)
	left := r.buf
	i, j, k := 0, m, 0
	for ; i < len(left) && j < len(ev); k++ {
		if compareEvents(ev[j], left[i]) < 0 {
			ev[k] = ev[j]
			j++
		} else {
			ev[k] = left[i]
			i++
		}
	}
	copy(ev[k:], left[i:])
}

// State captures the recorder's full registry and trace sink. Returns nil
// on a nil recorder (observability off — nothing to restore). The events
// come out in compareEvents order: State sorts the recorder's own event
// list in place (sortEvents) and returns a copy of it, so it writes to
// the recorder and falls under the one-writer rule like any recording
// call.
func (r *Recorder) State() *State {
	if r == nil {
		return nil
	}
	r.sortEvents()
	s := &State{
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Hists:         make(map[string]HistState, len(r.hists)),
		Events:        append(make([]EventState, 0, len(r.events)), r.events...),
		Procs:         make(map[int]string, len(r.procs)),
		Threads:       make(map[[2]int]string, len(r.threads)),
		Series:        make(map[string]SeriesState, len(r.series)),
		SeriesCadence: r.seriesEvery,
	}
	for k, c := range r.counters {
		s.Counters[k] = c.v
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.v
	}
	for k, h := range r.hists {
		s.Hists[k] = histState(h)
	}
	for pid, name := range r.procs {
		s.Procs[pid] = name
	}
	for k, name := range r.threads {
		s.Threads[k] = name
	}
	for k, sr := range r.series {
		s.Series[k] = SeriesState{Pid: sr.pid, Samples: append([]SamplePoint(nil), sr.samples...)}
	}
	return s
}

// histState captures one histogram's shape and bin counts.
func histState(h *Histogram) HistState {
	sh := h.h
	hs := HistState{
		Origin:    sh.BinStart(0),
		Width:     sh.Width(),
		Underflow: sh.Underflow(),
		Overflow:  sh.Overflow(),
		Counts:    make([]int64, sh.Bins()),
	}
	for i := range hs.Counts {
		hs.Counts[i] = sh.Count(i)
	}
	return hs
}

// LoadState replaces the recorder's entire contents with a captured
// state. Call it on a fresh recorder before any component resolves metric
// handles: handles resolved earlier keep pointing at the replaced
// registry entries. A nil receiver or nil state is a no-op.
func (r *Recorder) LoadState(s *State) {
	if r == nil || s == nil {
		return
	}
	r.counters = make(map[string]*Counter, len(s.Counters))
	for k, v := range s.Counters {
		r.counters[k] = &Counter{v: v}
	}
	r.gauges = make(map[string]*Gauge, len(s.Gauges))
	for k, v := range s.Gauges {
		r.gauges[k] = &Gauge{v: v}
	}
	r.hists = make(map[string]*Histogram, len(s.Hists))
	for k, hs := range s.Hists {
		sh := stats.NewHistogram(hs.Origin, hs.Width, len(hs.Counts))
		sh.SetState(hs.Underflow, hs.Overflow, hs.Counts)
		r.hists[k] = &Histogram{h: sh}
	}
	r.events = append(make([]EventState, 0, len(s.Events)), s.Events...)
	r.sorted = 0
	r.procs = make(map[int]string, len(s.Procs))
	for pid, name := range s.Procs {
		r.procs[pid] = name
	}
	r.threads = make(map[[2]int]string, len(s.Threads))
	for k, name := range s.Threads {
		r.threads[k] = name
	}
	r.procOrder, r.threadOrder = nil, nil
	r.series = make(map[string]*Series, len(s.Series))
	for k, ss := range s.Series {
		r.series[k] = &Series{
			pid:     ss.Pid,
			samples: append([]SamplePoint(nil), ss.Samples...),
		}
	}
	r.seriesEvery = s.SeriesCadence
	r.byName.counters = orderOf(r.counters)
	r.byName.gauges = orderOf(r.gauges)
	r.byName.hists = orderOf(r.hists)
	r.byName.series = orderOf(r.series)
}

// Entry is one keyed registry entry of a View.
type Entry[K, V any] struct {
	Key K
	Val V
}

// View is a recorder's state laid out in the order a checkpoint encodes
// it: every registry as entries in ascending key order, the events in the
// order State gives them. It carries what State carries without State's
// copies.
type View struct {
	Counters, Gauges []Entry[string, int64]
	Hists            []Entry[string, HistState]
	Events           []EventState
	Procs            []Entry[int, string]
	Threads          []Entry[[2]int, string]
	SeriesCadence    int64
	Series           []Entry[string, SeriesState]
}

// View returns the recorder's state for a checkpoint capture without
// copying its history: the events are the recorder's own list, put into
// compareEvents order in place as State does (sortEvents: only the events
// recorded since the last export are ordered, by merging their ascending
// runs, then merged into the ordered rest), and every series' samples
// are its own slice. Names come from the recorder's kept order, which is
// sorted again only after a registry grew, and the process and thread
// names from an order kept until a name is added or changed (a
// SetThreadName that repeats a name keeps it). Like State, View writes to
// the recorder; the view holds only until the recorder's next write.
// Returns nil on a nil recorder.
func (r *Recorder) View() *View {
	if r == nil {
		return nil
	}
	r.sortEvents()
	return &View{
		Counters:      mapValues(r.byName.counters.sorted(), func(c *Counter) int64 { return c.v }),
		Gauges:        mapValues(r.byName.gauges.sorted(), func(g *Gauge) int64 { return g.v }),
		Hists:         mapValues(r.byName.hists.sorted(), histState),
		Events:        r.events,
		Procs:         r.procEntries(),
		Threads:       r.threadEntries(),
		SeriesCadence: r.seriesEvery,
		Series: mapValues(r.byName.series.sorted(), func(s *Series) SeriesState {
			return SeriesState{Pid: s.pid, Samples: s.samples}
		}),
	}
}

// View returns the state in encoding order, sorting a copy of every map's
// keys. The events keep their slice order. Returns nil on a nil state.
func (s *State) View() *View {
	if s == nil {
		return nil
	}
	return &View{
		Counters:      entries(s.Counters, strings.Compare),
		Gauges:        entries(s.Gauges, strings.Compare),
		Hists:         entries(s.Hists, strings.Compare),
		Events:        s.Events,
		Procs:         entries(s.Procs, cmp.Compare[int]),
		Threads:       entries(s.Threads, compareTracks),
		SeriesCadence: s.SeriesCadence,
		Series:        entries(s.Series, strings.Compare),
	}
}

// keyOrder keeps one string-keyed registry's entries in ascending key
// order. A registry that gains an entry appends it (add), and the next
// sorted call sorts the list again, so once a run has resolved its
// metrics an export sorts nothing.
type keyOrder[T any] struct {
	es      []Entry[string, T]
	inOrder bool // es is in ascending key order
}

func (o *keyOrder[T]) add(k string, v T) {
	o.es = append(o.es, Entry[string, T]{k, v})
	o.inOrder = false
}

func (o *keyOrder[T]) sorted() []Entry[string, T] {
	if !o.inOrder {
		slices.SortFunc(o.es, func(a, b Entry[string, T]) int { return strings.Compare(a.Key, b.Key) })
		o.inOrder = true
	}
	return o.es
}

// orderOf is the key order of a registry rebuilt wholesale (LoadState),
// sorted at once.
func orderOf[T any](m map[string]T) keyOrder[T] {
	o := keyOrder[T]{es: make([]Entry[string, T], 0, len(m))}
	for k, v := range m {
		o.add(k, v)
	}
	o.sorted()
	return o
}

// mapValues maps every entry's value through f, keeping the order.
func mapValues[T, V any](es []Entry[string, T], f func(T) V) []Entry[string, V] {
	out := make([]Entry[string, V], len(es))
	for i, e := range es {
		out[i] = Entry[string, V]{e.Key, f(e.Val)}
	}
	return out
}

// entries returns m's entries in ascending key order under compare.
func entries[K comparable, V any](m map[K]V, compare func(a, b K) int) []Entry[K, V] {
	out := make([]Entry[K, V], 0, len(m))
	for k, v := range m {
		out = append(out, Entry[K, V]{k, v})
	}
	slices.SortFunc(out, func(a, b Entry[K, V]) int { return compare(a.Key, b.Key) })
	return out
}

// procEntries returns the process names in ascending pid order, sorted
// again only after a name was added or changed.
func (r *Recorder) procEntries() []Entry[int, string] {
	if r.procOrder == nil {
		r.procOrder = entries(r.procs, cmp.Compare[int])
	}
	return r.procOrder
}

// threadEntries returns the thread names in ascending (pid, tid) order,
// sorted again only after a name was added or changed.
func (r *Recorder) threadEntries() []Entry[[2]int, string] {
	if r.threadOrder == nil {
		r.threadOrder = entries(r.threads, compareTracks)
	}
	return r.threadOrder
}

// compareTracks orders (pid, tid) trace tracks by pid, then tid.
func compareTracks(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}
