// Package serve simulates inference serving on a multi-TSP deployment: a
// stream of requests arrives at the host, each inference occupies the
// deterministic pipeline for its compiled period, and completion times
// follow from queueing — not from execution variance, because the machine
// itself has none (§5.4: the histogram's spread is all host-side).
//
// The simulator is deterministic given a seed: arrivals are a Poisson-like
// process drawn from a SplitMix64 stream, service is the compiled constant.
package serve

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/sim"
)

// serveTid is the host-side trace track carrying request-lifecycle spans.
const serveTid = 1

// maxRequestSpans bounds trace spans per Run call; counters and the
// latency histogram always cover every request.
const maxRequestSpans = 1000

// Config describes a serving scenario.
type Config struct {
	// ServiceUS is one inference's deterministic service time (the
	// compiled pipeline period for throughput, e.g. a BERT deployment's
	// stage period).
	ServiceUS float64
	// PipelineDepth is how many inferences can be in flight (one per
	// pipeline stage).
	PipelineDepth int
	// ArrivalRatePerSec is the offered load.
	ArrivalRatePerSec float64
	// Requests is the number of simulated requests.
	Requests int
	// Seed drives the arrival process.
	Seed uint64
	// Recorder records the run (nil records nothing).
	Recorder *obs.Recorder
}

// Result summarizes a serving run.
type Result struct {
	Requests   int
	Throughput float64 // completed/sec
	// Latency percentiles in µs (queueing + service).
	P50US, P99US, MaxUS float64
	// Utilization is busy time / wall time of the pipeline's bottleneck
	// stage.
	Utilization float64
}

// Incident is one fault's serving-visible footprint (§4.5's last rung):
// at StartUS the deployment stalls for ReplayUS (detection + replay +
// failover turnaround, converted to host time), then continues at
// CapacityFrac of its compiled capacity — 1.0 after a clean failover onto
// a spare, < 1.0 when the spares are exhausted and the remap squeezed the
// model onto fewer chips. The capacity factor persists until the next
// incident overrides it (or the run ends).
type Incident struct {
	StartUS      float64
	ReplayUS     float64
	CapacityFrac float64
}

// DegradedResult extends Result with the recovery footprint.
type DegradedResult struct {
	Result
	// ReplayedRequests arrived during a recovery stall; their queueing
	// delay carries the replay tail into the latency percentiles.
	ReplayedRequests int
	// DegradedRequests were served at reduced capacity.
	DegradedRequests int
	// AvailableFrac is 1 − (total stall time / wall time).
	AvailableFrac float64
}

// Run simulates the scenario with no incidents.
func Run(cfg Config) (Result, error) {
	r, err := RunDegraded(cfg, nil)
	return r.Result, err
}

// RunDegraded simulates the scenario through a deterministic incident
// schedule: the request stream keeps arriving while the runtime walks the
// recovery ladder, so the replay tail and the degraded-capacity era are
// visible in the same latency percentiles the healthy run reports.
//
// Overlapping recovery stalls are merged before they are subtracted from
// wall time, so back-to-back faults never double-count and AvailableFrac
// stays in [0, 1]. An incident with CapacityFrac == 0 is a total outage:
// the system stalls until the next incident restores capacity, and a
// schedule that ends on one is rejected.
func RunDegraded(cfg Config, incidents []Incident) (DegradedResult, error) {
	if !positiveFinite(cfg.ServiceUS) || cfg.PipelineDepth < 1 || cfg.Requests < 1 || !positiveFinite(cfg.ArrivalRatePerSec) {
		return DegradedResult{}, fmt.Errorf("serve: invalid config %+v", cfg)
	}
	incs := append([]Incident(nil), incidents...)
	sort.SliceStable(incs, func(i, j int) bool { return incs[i].StartUS < incs[j].StartUS })
	if err := ValidateIncidents(incs); err != nil {
		return DegradedResult{}, err
	}
	rng := sim.NewRNG(cfg.Seed)
	meanGapUS := 1e6 / cfg.ArrivalRatePerSec

	rec := cfg.Recorder
	var reqCount, queuedCount, replayedCount, degradedCount *obs.Counter
	var latHist *obs.Histogram
	// Time-series telemetry (armed by a recorder sampling cadence): the
	// admission-queue depth, the host backlog, and the in-flight batch
	// estimate, sampled on a deterministic arrival stride. Each load level
	// gets its own rate-labeled series, so the levels of a SaturationSweep
	// write disjoint series.
	var depthSeries, backlogSeries, inflightSeries *obs.Series
	sampleStride := 0
	if rec != nil && rec.SeriesCadence() > 0 {
		rate := obs.L("rate", strconv.FormatFloat(cfg.ArrivalRatePerSec, 'g', -1, 64))
		depthSeries = rec.Series("serve.queue_depth", obs.PidHost, rate)
		backlogSeries = rec.Series("serve.backlog_us", obs.PidHost, rate)
		inflightSeries = rec.Series("serve.batch_inflight", obs.PidHost, rate)
		sampleStride = cfg.Requests / 512
		if sampleStride < 1 {
			sampleStride = 1
		}
	}
	if rec != nil {
		rec.SetProcessName(obs.PidHost, "host")
		rec.SetThreadName(obs.PidHost, serveTid, "serve")
		reqCount = rec.Counter("serve.requests")
		queuedCount = rec.Counter("serve.requests_queued")
		// Bins of 100 µs up to 50 ms cover the paper's serving latencies;
		// the overflow bin catches saturation tails exactly.
		latHist = rec.Histogram("serve.latency_us", 0, 100, 500)
		if len(incs) > 0 {
			replayedCount = rec.Counter("serve.replayed_requests")
			degradedCount = rec.Counter("serve.degraded_requests")
		}
	}

	// The pipeline admits a new inference every ServiceUS (initiation
	// interval), with PipelineDepth in flight; a request's latency is
	// wait-for-slot + PipelineDepth·ServiceUS (fill) — modeled as a
	// single server with service = ServiceUS and a fixed residency.
	lat := make([]float64, 0, cfg.Requests)
	arrival := 0.0
	sys := NewSystem(cfg.ServiceUS, cfg.PipelineDepth)
	nextInc := 0
	// qStarts[qHead:] are the start times of admitted requests still
	// waiting for their pipeline slot — the admission queue the
	// serve.queue_depth series samples.
	var qStarts []float64
	qHead := 0
	res := DegradedResult{AvailableFrac: 1}
	for i := 0; i < cfg.Requests; i++ {
		// Exponential inter-arrival via inverse transform.
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		arrival += -math.Log(u) * meanGapUS
		// Activate every incident that struck before this arrival: the
		// pipeline slot is blocked through the recovery stall (overlapping
		// windows merged), and the capacity factor applies to everything
		// that follows.
		for nextInc < len(incs) && incs[nextInc].StartUS <= arrival {
			inc := incs[nextInc]
			nextInc++
			nextStart := math.Inf(1)
			if nextInc < len(incs) {
				nextStart = incs[nextInc].StartUS
			}
			sys.Activate(inc, nextStart)
			if rec != nil {
				rec.Counter("serve.incidents").Inc()
				rec.SpanUS(obs.PidHost, serveTid, "serve.incident", inc.StartUS, inc.ReplayUS)
			}
		}
		// Requests admitted earlier whose slot has opened by now have left
		// the admission queue.
		for qHead < len(qStarts) && qStarts[qHead] <= arrival {
			qHead++
		}
		if qHead > 1024 {
			qStarts = append(qStarts[:0], qStarts[qHead:]...)
			qHead = 0
		}
		if depthSeries != nil && i%sampleStride == 0 {
			cyc := clock.CyclesOfUS(arrival)
			depthSeries.Add(cyc, int64(len(qStarts)-qHead))
			backlog := sys.EarliestStart(arrival) - arrival
			backlogSeries.Add(cyc, int64(backlog))
			// In-flight batch: initiation slots already committed ahead of
			// this arrival, capped at the pipeline depth.
			inflight := int64(math.Ceil(backlog / (cfg.ServiceUS * sys.Scale())))
			if inflight > int64(cfg.PipelineDepth) {
				inflight = int64(cfg.PipelineDepth)
			}
			inflightSeries.Add(cyc, inflight)
		}
		start, done := sys.Admit(arrival, 1)
		if start > arrival {
			qStarts = append(qStarts, start)
		}
		lat = append(lat, done-arrival)
		replayed := sys.InStall(arrival)
		if replayed {
			res.ReplayedRequests++
		}
		if sys.Scale() > 1 {
			res.DegradedRequests++
		}
		if rec != nil {
			reqCount.Inc()
			if start > arrival {
				queuedCount.Inc()
			}
			if replayed {
				replayedCount.Inc()
			}
			if sys.Scale() > 1 {
				degradedCount.Inc()
			}
			latHist.Add(done - arrival)
			if i < maxRequestSpans {
				rec.SpanUS(obs.PidHost, serveTid, fmt.Sprintf("req%d", i), arrival, done-arrival)
			} else if i == maxRequestSpans {
				rec.Counter("serve.request_spans_suppressed").Add(int64(cfg.Requests - maxRequestSpans))
			}
		}
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		idx := int(p / 100 * float64(len(lat)-1))
		return lat[idx]
	}
	res.AvailableFrac = sys.AvailableFrac(sys.LastDoneUS())
	res.Result = Result{
		Requests:    cfg.Requests,
		Throughput:  float64(cfg.Requests) / (sys.LastDoneUS() / 1e6),
		P50US:       pct(50),
		P99US:       pct(99),
		MaxUS:       lat[len(lat)-1],
		Utilization: sys.BusyUS() / sys.LastDoneUS(),
	}
	return res, nil
}

// positiveFinite reports whether x is a usable rate or duration: NaN
// and ±Inf would turn every percentile and the throughput into NaN or
// Inf instead of failing.
func positiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// SaturationSweep runs the scenario across load levels (fractions of the
// pipeline's capacity 1/ServiceUS), in order, and returns one Result per
// level. Each level's Run is an independent, seed-determined simulation
// recorded into rec. The first failing level's error is returned.
func SaturationSweep(serviceUS float64, depth int, loads []float64, requests int, seed uint64, rec *obs.Recorder) ([]Result, error) {
	capacity := 1e6 / serviceUS
	out := make([]Result, len(loads))
	for i, load := range loads {
		r, err := Run(Config{
			ServiceUS:         serviceUS,
			PipelineDepth:     depth,
			ArrivalRatePerSec: load * capacity,
			Requests:          requests,
			Seed:              seed,
			Recorder:          rec,
		})
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
