// Cadence-sampled time series: the flight-recorder half of the
// observability layer.
//
// A Series is an append-only sequence of (cycle, value) samples for one
// metric. Series fill two ways: instrumented code appends directly
// (serve's queue-depth track), or the runtime calls SampleSeries at a
// heap barrier and the recorder snapshots every registered counter and
// gauge into a series named by the metric's canonical key. At a barrier
// every send issued before the barrier cycle has been delivered, so the
// sampled series are byte-identical across worker counts, the same
// argument that makes the flat metrics dump stable.
//
// Like every obs handle, the nil *Series and nil *Recorder are valid
// no-op sinks: instrumented hot paths pay one predictable branch when
// observability is off.
package obs

// SamplePoint is one (simulated cycle, value) observation.
type SamplePoint struct {
	Cycle int64 `json:"cycle"`
	Value int64 `json:"value"`
}

// Series is an append-only per-metric time series keyed by simulated
// cycle. The nil series is a valid no-op sink. It holds no lock: its
// Recorder's one writer appends to it, host-side code (serve) directly and
// the simulator from barrier code.
type Series struct {
	pid     int
	samples []SamplePoint
}

// Add appends a sample. A sample at the same cycle as the last one
// overwrites it (last write wins), so re-sampling a barrier is
// idempotent.
func (s *Series) Add(cycle, value int64) {
	if s == nil {
		return
	}
	if n := len(s.samples); n > 0 && s.samples[n-1].Cycle == cycle {
		s.samples[n-1].Value = value
	} else {
		s.samples = append(s.samples, SamplePoint{Cycle: cycle, Value: value})
	}
}

// Series returns (creating on first use) the series for name+labels,
// rendered as a counter track under trace process pid. The pid argument
// is used only on first creation. Returns nil on a nil recorder.
func (r *Recorder) Series(name string, pid int, labels ...Label) *Series {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	s, ok := r.series[k]
	if !ok {
		s = &Series{pid: pid}
		r.series[k] = s
		r.byName.series.add(k, s)
	}
	return s
}

// SetSeriesCadence arms (or, with 0, disarms) barrier sampling every
// `every` cycles. The cadence is advisory metadata for the executor that
// drives SampleSeries; the recorder itself never samples spontaneously.
// Negative cadences clamp to 0.
func (r *Recorder) SetSeriesCadence(every int64) {
	if r == nil {
		return
	}
	if every < 0 {
		every = 0
	}
	r.seriesEvery = every
}

// SeriesCadence reports the armed sampling cadence (0 = disarmed, and
// for the nil recorder).
func (r *Recorder) SeriesCadence() int64 {
	if r == nil {
		return 0
	}
	return r.seriesEvery
}

// NumSeries reports how many series exist (0 for nil).
func (r *Recorder) NumSeries() int {
	if r == nil {
		return 0
	}
	return len(r.series)
}

// SampleSeries snapshots every registered counter and gauge into its
// series at the given cycle, creating series (under PidFabric) on first
// sight of a metric. Call it only from points where the counter values
// are execution-order invariant — heap barriers — so the resulting
// series match across worker counts. Nil-recorder calls are no-ops.
//
// It walks the counters and then the gauges in name order (the kept
// order View uses, sorted again only after a registry grew). Each handle
// keeps the series it feeds from its first sample on, so a barrier looks
// up no name. Counters go before gauges: a counter and a gauge with the
// same key feed one series, and the gauge, written last, wins. LoadState
// makes new handles, which resolve again at their first sample.
func (r *Recorder) SampleSeries(cycle int64) {
	if r == nil {
		return
	}
	for _, e := range r.byName.counters.sorted() {
		c := e.Val
		if c.s == nil {
			c.s = r.Series(e.Key, PidFabric)
		}
		c.s.Add(cycle, c.v)
	}
	for _, e := range r.byName.gauges.sorted() {
		g := e.Val
		if g.s == nil {
			g.s = r.Series(e.Key, PidFabric)
		}
		g.s.Add(cycle, g.v)
	}
}
