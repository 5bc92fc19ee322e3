// Package fleet is the §4.5 reliability story composed end to end: N
// multi-TSP systems serve one shared open-loop request stream over
// months of simulated time, each system failing on its own seeded
// MTBF-driven incident schedule (internal/faultplan's semantics through
// workloads.FaultProfile — replay, N+1 failover, post-spare capacity
// loss, checkpoint-shortened stalls), while a load balancer routes
// arriving requests across healthy systems and a policy layer reacts to
// stalls and spare exhaustion (drain-and-redistribute, standby spare
// activation, optional shed-first). The output is an SLOReport: rolling
// 99.9/99.99 attainment, TTFB-style latency percentiles, error/shed
// budgets, and per-system availability — the fleet-scale SLO number every
// per-cluster robustness mechanism in this repo ultimately feeds.
//
// Determinism contract: everything is drawn from sim.RNG streams forked
// off one seed by stable identifiers — system i's fault schedule from
// Fork(sysStreamBase+i), the arrival process and traffic mix from their
// own streams — so repeated runs, and runs that fork the streams in any
// order, produce byte-identical SLOReport JSON.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fork identifiers: per-system fault schedules fork at sysStreamBase+i,
// the shared arrival and traffic-mix streams at fixed ids far away.
const (
	arrivalStream uint64 = 1 << 40
	mixStream     uint64 = 1<<40 + 1
	sysStreamBase uint64 = 0
)

// TrafficClass is one slice of the arrival stream: Share of requests
// whose service time is ServiceMult times the system's base ServiceUS
// (e.g. interactive short sequences vs long batch scoring). A class may
// carry its own SLO target; zero inherits Config.SLOTargetUS. Priority
// orders classes under the priority-shedding policy: 0 is the most
// important tier, higher priorities shed earlier when ShedPolicy is
// armed.
type TrafficClass struct {
	Name        string  `json:"name"`
	Share       float64 `json:"share"`
	ServiceMult float64 `json:"service_mult"`
	// SLOTargetUS overrides Config.SLOTargetUS for this class (0 =
	// inherit): a batch request can be "good" at a latency that would
	// violate the interactive tier's bound.
	SLOTargetUS float64 `json:"slo_target_us,omitempty"`
	// Priority is the shed order under Policy.Shed: 0 first-class,
	// larger values shed earlier.
	Priority int `json:"priority,omitempty"`
}

// Config describes a fleet scenario.
type Config struct {
	// Systems is the number of active systems at t=0.
	Systems int
	// Standby is the pool of powered-off spare systems the policy layer
	// can activate when an active system sheds capacity.
	Standby int
	// ServiceUS and PipelineDepth describe each system's compiled
	// deployment (one inference's initiation interval and the in-flight
	// depth), identical across the fleet.
	ServiceUS     float64
	PipelineDepth int
	// ArrivalRatePerSec is the fleet-wide open-loop offered load.
	ArrivalRatePerSec float64
	// HorizonDays is the simulated span.
	HorizonDays float64
	// Seed drives every stochastic stream through forked sim.RNGs.
	Seed uint64
	// Fault is the per-system incident model; each system draws an
	// independent schedule from its forked stream.
	Fault workloads.FaultProfile
	// Mix splits arrivals into traffic classes (shares must sum to 1).
	// Empty means one class at ServiceMult 1.
	Mix []TrafficClass
	// SLOTargetUS is the latency bound a request must meet to count
	// toward SLO attainment.
	SLOTargetUS float64
	// WindowUS is the rolling SLO accounting window (default one
	// simulated hour).
	WindowUS float64
	// ShedAboveUS arms the shed-first policy: when every routable
	// system's wait-for-slot exceeds it, the request is shed (an error
	// budget hit) instead of queued. 0 queues forever.
	ShedAboveUS float64
	// WarmupUS is the standby activation latency: a spare scheduled at t
	// serves from t+WarmupUS.
	WarmupUS float64
	// Policy is the proactive layer: predictive draining, standby
	// pre-warming, and per-class priority shedding. The zero value
	// reproduces the reactive-only engine byte-for-byte.
	Policy Policy
	// Recorder records the run (nil records nothing).
	Recorder *obs.Recorder
}

// withDefaults fills the optional knobs.
func (c Config) withDefaults() Config {
	if c.WindowUS == 0 {
		c.WindowUS = 3600 * 1e6 // one simulated hour
	}
	c.Policy = c.Policy.withDefaults(c.Fault)
	return c
}

// maxAmbientSamples caps each system's ambient indicator grid, which
// DrawWithIndicators sizes at horizon/Fault.LeadUS readings: 16 MiB of
// samples per system at the cap.
const maxAmbientSamples = 1 << 20

// horizonUS is the simulated span in microseconds.
func (c Config) horizonUS() float64 { return c.HorizonDays * 24 * 3600 * 1e6 }

// Validate rejects non-physical configs, one named complaint per field
// so a bad sweep point says which knob broke instead of silently
// producing an empty report.
func (c Config) Validate() error {
	switch {
	case c.Systems < 1:
		return fmt.Errorf("fleet: Systems %d: need at least one active system", c.Systems)
	case c.Standby < 0:
		return fmt.Errorf("fleet: Standby %d must be >= 0", c.Standby)
	case c.ServiceUS <= 0 || math.IsNaN(c.ServiceUS) || math.IsInf(c.ServiceUS, 0):
		return fmt.Errorf("fleet: ServiceUS %g must be positive and finite", c.ServiceUS)
	case c.PipelineDepth < 1:
		return fmt.Errorf("fleet: PipelineDepth %d must be >= 1", c.PipelineDepth)
	case c.ArrivalRatePerSec <= 0 || math.IsNaN(c.ArrivalRatePerSec) || math.IsInf(c.ArrivalRatePerSec, 0):
		// An infinite rate makes every arrival gap zero, so Run would never
		// advance past t = 0.
		return fmt.Errorf("fleet: ArrivalRatePerSec %g must be positive and finite", c.ArrivalRatePerSec)
	case c.HorizonDays <= 0 || math.IsNaN(c.HorizonDays) || math.IsInf(c.HorizonDays, 0):
		return fmt.Errorf("fleet: HorizonDays %g must be positive and finite", c.HorizonDays)
	case c.SLOTargetUS <= 0 || math.IsNaN(c.SLOTargetUS):
		return fmt.Errorf("fleet: SLOTargetUS %g must be positive", c.SLOTargetUS)
	case c.WindowUS <= 0 || math.IsNaN(c.WindowUS):
		return fmt.Errorf("fleet: WindowUS %g must be positive", c.WindowUS)
	case c.ShedAboveUS < 0 || math.IsNaN(c.ShedAboveUS):
		return fmt.Errorf("fleet: ShedAboveUS %g must be >= 0", c.ShedAboveUS)
	case c.WarmupUS < 0 || math.IsNaN(c.WarmupUS):
		return fmt.Errorf("fleet: WarmupUS %g must be >= 0", c.WarmupUS)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.Fault.LeadUS > 0 && c.horizonUS()/c.Fault.LeadUS > maxAmbientSamples {
		return fmt.Errorf("fleet: Fault.LeadUS %g gives %g ambient indicator samples per system over %g days, above the cap of %d",
			c.Fault.LeadUS, c.horizonUS()/c.Fault.LeadUS, c.HorizonDays, maxAmbientSamples)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if len(c.Mix) > 0 {
		sum := 0.0
		for _, cl := range c.Mix {
			if cl.Share <= 0 || cl.ServiceMult <= 0 || cl.Priority < 0 ||
				cl.SLOTargetUS < 0 ||
				math.IsNaN(cl.Share) || math.IsNaN(cl.ServiceMult) {
				return fmt.Errorf("fleet: invalid traffic class %+v", cl)
			}
			sum += cl.Share
		}
		if sum <= 0 {
			return fmt.Errorf("fleet: traffic-class shares sum to %g, want a positive sum of 1", sum)
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("fleet: traffic-class shares sum to %g, want 1", sum)
		}
	}
	return nil
}

// sysState is one system's runtime state. The engine keeps the systems
// in one flat slice with the serving state held by value, so the router's
// scan reads each slot time at a fixed stride.
type sysState struct {
	sys    serve.System
	events []workloads.FaultEvent
	tally  workloads.IncidentTally
	next   int // next unactivated event
	// standby bookkeeping: activeAtUS is 0 for initial actives, +Inf for
	// unscheduled standbys, the activation instant once scheduled.
	standby    bool
	activated  bool
	activeAtUS float64
	// serving-visible footprint.
	requests  int64
	incidents int
	replays   int
	failovers int
	losses    int
	// predictive-drain state: the leading-indicator feed, the windowed
	// health tracker over it, and the active drain's expiry.
	indicators   []workloads.IndicatorSample
	nextInd      int
	tracker      *healthTracker
	drainUntilUS float64
	drains       int
	drainHit     bool // current drain absorbed an incident already
	idleReplays  int  // replays that landed on a drained-idle system
	// obs series handles (nil when telemetry is off).
	backlogSeries  *obs.Series
	capacitySeries *obs.Series
}

// routable reports whether the system accepts requests at t.
func (s *sysState) routable(t float64) bool { return s.activeAtUS <= t }

// draining reports whether the system is quiescing ahead of a predicted
// fault (state lives on the serve.System so serve-level callers see it).
func (s *sysState) draining() bool { return s.sys.Draining() }

// engine is one Run's working state.
type engine struct {
	cfg       Config
	horizonUS float64
	systems   []sysState
	// policy state: index of the next unscheduled standby, plus the
	// pre-warm queue — drain triggers that started warming a standby,
	// consumed in order by capacity-loss activations.
	nextStandby int
	prewarmedAt []float64
	// rolling-window SLO accounting, fleet-wide and per traffic class.
	winGood, winTotal []int64
	hist              *latHist
	classWinGood      [][]int64
	classWinTotal     [][]int64
	classHist         []*latHist
	// noClass and classes are each traffic class's routing constants;
	// noClass serves the single class of a config without a Mix.
	noClass classPlan
	classes []classPlan
	report  SLOReport
	// obs handles (nil-safe without a recorder).
	rec                                         *obs.Recorder
	reqCount, shedCount, rebalCount, violCount  *obs.Counter
	incCount, replayCount, failCount, lossCount *obs.Counter
	activationCount                             *obs.Counter
	drainCount, drainHitCount, drainExpCount    *obs.Counter
	drainedReqCount, prewarmCount, idleCount    *obs.Counter
	priShedCount                                *obs.Counter
	activeSeries, drainingSeries                *obs.Series
	sampleEveryUS, nextSampleUS                 float64
	// No system changes state before boundaryUS, the fleet's next
	// incident, indicator sample, drain expiry or standby activation, so
	// until then the routable systems split into ready and drained (in
	// index order) and stallUntilUS is the latest stall end among them.
	boundaryUS     float64
	ready, drained []int
	stallUntilUS   float64
}

// classPlan is one traffic class's per-request constants, resolved once
// in newEngine: its service multiplier, its SLO target, and shedBound's
// bound calm and under pressure, with whether priority shedding
// tightened the pressured one.
type classPlan struct {
	mult, targetUS    float64
	calmUS, pressedUS float64
	tightened         bool
}

// fleetTid is the PidHost trace track carrying fleet policy instants.
const fleetTid = 2

// newEngine validates cfg and builds a Run's working state and the root
// stream the arrival process forks from.
func newEngine(cfg Config) (*engine, *sim.RNG, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	e := &engine{cfg: cfg, horizonUS: cfg.horizonUS()}

	// Per-system fault schedules, forked by stable id: order-independent,
	// so building system 7's schedule never perturbs system 3's. The
	// leading indicators ride the same forked stream (sub-forked by
	// stable id), so arming them never moves a fault.
	total := cfg.Systems + cfg.Standby
	root := sim.NewRNG(cfg.Seed)
	e.systems = make([]sysState, total)
	for i := range e.systems {
		events, indicators, tally := cfg.Fault.DrawWithIndicators(root.Fork(sysStreamBase+uint64(i)), e.horizonUS)
		st := &e.systems[i]
		*st = sysState{
			sys:        *serve.NewSystem(cfg.ServiceUS, cfg.PipelineDepth),
			events:     events,
			tally:      tally,
			indicators: indicators,
		}
		if cfg.Policy.Drain.Enabled() {
			st.tracker = newHealthTracker(cfg.Policy.Drain.Window)
		}
		if i >= cfg.Systems {
			st.standby = true
			st.activeAtUS = math.Inf(1)
		}
	}
	e.nextStandby = cfg.Systems

	nWin := int(e.horizonUS/cfg.WindowUS) + 1
	e.winGood = make([]int64, nWin)
	e.winTotal = make([]int64, nWin)
	e.hist = newLatHist(cfg.SLOTargetUS)
	if len(cfg.Mix) > 0 {
		e.classWinGood = make([][]int64, len(cfg.Mix))
		e.classWinTotal = make([][]int64, len(cfg.Mix))
		e.classHist = make([]*latHist, len(cfg.Mix))
		for ci, cl := range cfg.Mix {
			e.classWinGood[ci] = make([]int64, nWin)
			e.classWinTotal[ci] = make([]int64, nWin)
			e.classHist[ci] = newLatHist(e.classTarget(cl))
		}
	}
	e.wireObs()
	e.noClass = e.classPlan(-1)
	for ci, cl := range cfg.Mix {
		plan := e.classPlan(ci)
		e.classes = append(e.classes, plan)
		e.report.Classes = append(e.report.Classes, ClassReport{
			Name:        cl.Name,
			Priority:    cl.Priority,
			SLOTargetUS: plan.targetUS,
			ShedAboveUS: plan.pressedUS,
		})
	}
	return e, root, nil
}

// Run simulates the fleet and returns its SLO report. The same config
// always produces a byte-identical report (see SLOReport.JSON).
func Run(cfg Config) (*SLOReport, error) {
	e, root, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg
	feed := &arrivalFeed{
		arr:       root.Fork(arrivalStream),
		mix:       root.Fork(mixStream),
		mixes:     cfg.Mix,
		meanGapUS: 1e6 / cfg.ArrivalRatePerSec,
		horizonUS: e.horizonUS,
	}
	nextHome := 0
	// k indexes the current block of n arrivals; a spent block is
	// refilled, and an empty refill ends the stream.
	for k, n := 0, 0; ; k++ {
		if k == n {
			if n, k = feed.fill(), 0; n == 0 {
				break
			}
		}
		t := feed.at[k]
		class := feed.class[k]
		plan := &e.noClass
		if class >= 0 {
			plan = &e.classes[class]
		}
		// At a state boundary, advance every system through the
		// incidents, leading indicators, and drain expiries that matured
		// before this arrival, in index order and per-system time order —
		// deterministic. Before it, every advance would be a no-op.
		if t >= e.boundaryUS {
			for i := range e.systems {
				e.advance(&e.systems[i], t)
			}
			e.rescan(t)
		}
		if e.sampleEveryUS != 0 && t >= e.nextSampleUS {
			e.sample(t)
		}

		// Route: requests have an affinity home (round-robin over the
		// initial actives); a request leaves home only when home cannot
		// start it immediately — a stall, a backlog, or a predictive
		// drain — and then joins the non-draining system with the
		// earliest free slot (drain-and-redistribute). Draining systems
		// take traffic again only when every routable system drains.
		//
		// Every engine time is finite and >= 0, or +Inf, and the bit
		// patterns of such float64s order exactly as their values do.
		// So the scans compare max(bits(slot free), bits(t)), which is
		// bits(EarliestStart(t)), as uint64, with the same strict <:
		// the lowest index wins a tie, and home wins it first.
		home := nextHome
		if nextHome++; nextHome == cfg.Systems {
			nextHome = 0
		}
		tBits := math.Float64bits(t)
		hs := &e.systems[home]
		chosen, best := home, max(math.Float64bits(hs.sys.SlotFreeUS()), tBits)
		homeDraining := hs.draining()
		if best > tBits || homeDraining {
			if homeDraining {
				chosen, best = -1, infBits
			}
			for _, i := range e.ready {
				if est := max(math.Float64bits(e.systems[i].sys.SlotFreeUS()), tBits); est < best {
					chosen, best = i, est
				}
			}
			if chosen < 0 {
				// The whole routable fleet is draining: the drain is
				// advisory, home serves anyway.
				chosen, best = home, max(math.Float64bits(hs.sys.SlotFreeUS()), tBits)
			}
		}

		w := int(t / cfg.WindowUS)
		e.winTotal[w]++
		e.report.Requests++
		e.reqCount.Inc()
		if class >= 0 {
			e.classWinTotal[class][w]++
			e.report.Classes[class].Requests++
		}

		// Shed-first: when even the best system's wait exceeds the
		// class's bound, reject instead of queueing — an error-budget
		// hit, not a latency sample. Priority shedding tightens the
		// bound of lower-priority classes so they shed first. A drain is
		// strictly advisory: before shedding, the router retries with
		// draining systems included — a drain reorders traffic but must
		// never shed a request the fleet had capacity for. Pressure is a
		// routable system draining or inside a recovery stall.
		bound, tightened := plan.calmUS, false
		if len(e.drained) > 0 || t < e.stallUntilUS {
			bound, tightened = plan.pressedUS, plan.tightened
		}
		if e.systems[chosen].sys.OverBound(t, bound) {
			for _, i := range e.drained {
				if est := max(math.Float64bits(e.systems[i].sys.SlotFreeUS()), tBits); est < best {
					chosen, best = i, est
				}
			}
		}
		st := &e.systems[chosen]
		if st.sys.OverBound(t, bound) {
			e.report.Shed++
			e.shedCount.Inc()
			if class >= 0 {
				e.report.Classes[class].Shed++
				if tightened && !st.sys.OverBound(t, e.cfg.ShedAboveUS) {
					// Shed only because priority shedding tightened the
					// bound — the cost side of protecting tier 0.
					e.report.PriorityShed++
					e.priShedCount.Inc()
					e.instant("fleet.priority_shed", t)
				}
			}
			continue
		}
		if chosen != home {
			e.report.Rebalanced++
			e.rebalCount.Inc()
			if homeDraining {
				e.report.DrainedRequests++
				e.drainedReqCount.Inc()
			}
		}
		_, done := st.sys.Admit(t, plan.mult)
		st.requests++
		lat := done - t
		e.hist.add(lat)
		if class >= 0 {
			e.classHist[class].add(lat)
			e.report.Classes[class].Served++
		}
		if lat <= plan.targetUS {
			e.winGood[w]++
			if class >= 0 {
				e.classWinGood[class][w]++
			}
		} else {
			e.violCount.Inc()
		}
	}
	// Flush incidents that struck after the last arrival so per-system
	// availability covers the whole horizon.
	for i := range e.systems {
		e.advance(&e.systems[i], e.horizonUS)
	}
	e.finish()
	return &e.report, nil
}

// infBits is math.Float64bits(math.Inf(1)), the ready scan's empty best.
const infBits = 0x7ff0000000000000

// classPlan resolves class's constants (-1 is the single class of a
// config without a Mix).
func (e *engine) classPlan(class int) classPlan {
	p := classPlan{mult: 1, targetUS: e.cfg.SLOTargetUS}
	if class >= 0 {
		cl := e.cfg.Mix[class]
		p.mult, p.targetUS = cl.ServiceMult, e.classTarget(cl)
	}
	p.calmUS, _ = e.shedBound(class, false)
	p.pressedUS, p.tightened = e.shedBound(class, true)
	return p
}

// arrivalBlock is how many arrivals Run draws ahead of routing.
const arrivalBlock = 256

// arrivalFeed draws the open-loop arrival process a block at a time,
// off the routing path. Its streams are forked per run and never read
// fleet state, so drawing ahead consumes exactly the draws, in the
// order, that drawing one arrival per request would.
type arrivalFeed struct {
	arr, mix             *sim.RNG
	mixes                []TrafficClass
	meanGapUS, horizonUS float64
	t                    float64 // the latest arrival drawn
	// at and class hold the current block: arrival times and traffic
	// class indices (-1 without a Mix).
	at    [arrivalBlock]float64
	class [arrivalBlock]int
}

// fill draws the next block of arrivals and returns how many fell
// inside the horizon; 0 means the stream has ended.
func (f *arrivalFeed) fill() int {
	n := 0
	for n < arrivalBlock && f.t < f.horizonUS {
		// Open-loop Poisson arrivals: exponential gaps via inverse
		// transform, exactly the serve package's process.
		u := f.arr.Float64()
		if u <= 0 {
			u = 1e-12
		}
		f.t += -math.Log(u) * f.meanGapUS
		if f.t >= f.horizonUS {
			break
		}
		f.at[n] = f.t
		n++
	}
	// Traffic classes (their own stream, so enabling a mix never
	// perturbs the arrival process): one draw per arrival inside the
	// horizon.
	for k := range f.class[:n] {
		class := -1
		if len(f.mixes) > 0 {
			x := f.mix.Float64()
			acc := 0.0
			for ci, cl := range f.mixes {
				acc += cl.Share
				class = ci
				if x < acc {
					break
				}
			}
		}
		f.class[k] = class
	}
	return n
}

// classTarget resolves a class's SLO target against the fleet default.
func (e *engine) classTarget(cl TrafficClass) float64 {
	if cl.SLOTargetUS > 0 {
		return cl.SLOTargetUS
	}
	return e.cfg.SLOTargetUS
}

// shedBound resolves the effective shed bound for a class, applying the
// priority-shedding factor when the fleet is under pressure, and reports
// whether the bound was tightened below Config.ShedAboveUS.
// Tightening only under pressure keeps calm windows untouched: priority
// shedding sacrifices the batch tier to protect tier 0 exactly when a
// fault is impending or recovering, not all the time.
func (e *engine) shedBound(class int, pressure bool) (float64, bool) {
	bound := e.cfg.ShedAboveUS
	if class < 0 || bound <= 0 || !pressure || !e.cfg.Policy.Shed.Enabled() {
		return bound, false
	}
	if p := e.cfg.Mix[class].Priority; p > 0 {
		return bound * math.Pow(e.cfg.Policy.Shed.PriorityFactor, float64(p)), true
	}
	return bound, false
}

// rescan follows an advance pass at t: it finds the next state boundary
// (a standby's activation, a routable system's pending instants) and the
// routing sets and stall end that hold until it.
func (e *engine) rescan(t float64) {
	e.boundaryUS, e.stallUntilUS = math.Inf(1), 0
	e.ready, e.drained = e.ready[:0], e.drained[:0]
	for i := range e.systems {
		st := &e.systems[i]
		next := [3]float64{st.activeAtUS, math.Inf(1), math.Inf(1)}
		if st.routable(t) {
			next[0], next[1], next[2] = e.pending(st)
			if st.draining() {
				e.drained = append(e.drained, i)
			} else {
				e.ready = append(e.ready, i)
			}
			if end := st.sys.StallEndUS(); end > e.stallUntilUS {
				e.stallUntilUS = end
			}
		}
		for _, at := range next {
			if at < e.boundaryUS {
				e.boundaryUS = at
			}
		}
	}
}

// pending returns st's next incident, indicator sample (while draining
// is armed) and drain expiry (while draining), +Inf when there is none.
func (e *engine) pending(st *sysState) (nextEv, nextInd, nextRel float64) {
	nextEv, nextInd, nextRel = math.Inf(1), math.Inf(1), math.Inf(1)
	if st.next < len(st.events) {
		nextEv = st.events[st.next].StartUS
	}
	if e.cfg.Policy.Drain.Enabled() && st.nextInd < len(st.indicators) {
		nextInd = st.indicators[st.nextInd].AtUS
	}
	if st.draining() {
		nextRel = st.drainUntilUS
	}
	return nextEv, nextInd, nextRel
}

// advance walks st forward to t, processing its incidents, leading
// indicators, and drain expiry strictly in time order — an indicator
// ramp that matured before its fault triggers the drain first, so the
// fault lands on an already-drained system even when one arrival gap
// spans both. A standby system first fast-forwards past the fault
// history that accrued while it was powered off: hardware state (lost
// capacity) applies, serving-visible stalls do not.
func (e *engine) advance(st *sysState, t float64) {
	if st.activeAtUS > t {
		return
	}
	if st.standby && !st.activated {
		st.activated = true
		for st.next < len(st.events) && st.events[st.next].StartUS < st.activeAtUS {
			st.sys.SetCapacity(st.events[st.next].CapacityFrac)
			st.next++
		}
		// Indicator history from the powered-off era predicts nothing
		// the activated system can still act on.
		for st.nextInd < len(st.indicators) && st.indicators[st.nextInd].AtUS < st.activeAtUS {
			st.nextInd++
		}
	}
	for {
		nextEv, nextInd, nextRel := e.pending(st)
		switch {
		case nextInd <= t && nextInd <= nextEv && nextInd <= nextRel:
			s := st.indicators[st.nextInd]
			st.nextInd++
			if st.tracker.push(s.Level, e.cfg.Policy.Drain.Threshold) {
				e.triggerDrain(st, s.AtUS)
			}
		case nextRel <= t && nextRel <= nextEv:
			// Hold expired with no incident: a false positive — release.
			e.releaseDrain(st, nextRel, false)
		case nextEv <= t:
			e.activateEvent(st, st.events[st.next])
		default:
			return
		}
	}
}

// triggerDrain starts draining st at time at (if it isn't already) and,
// under the pre-warm policy, starts warming the next standby.
func (e *engine) triggerDrain(st *sysState, at float64) {
	if st.draining() || st.sys.InStall(at) {
		// Already draining, or the fault already landed — nothing to
		// pre-empt.
		return
	}
	st.sys.SetDraining(true)
	st.drainUntilUS = at + e.cfg.Policy.Drain.HoldUS
	st.drainHit = false
	st.drains++
	e.report.Drains++
	e.drainCount.Inc()
	e.instant("fleet.drain", at)
	if e.cfg.Policy.Drain.Prewarm && e.nextStandby+len(e.prewarmedAt) < len(e.systems) {
		e.prewarmedAt = append(e.prewarmedAt, at)
		e.report.Prewarms++
		e.prewarmCount.Inc()
		e.instant("fleet.prewarm", at)
	}
}

// releaseDrain ends st's drain at time at. hit records whether an
// incident landed inside the drain (a true positive) or the hold simply
// expired.
func (e *engine) releaseDrain(st *sysState, at float64, hit bool) {
	st.sys.SetDraining(false)
	st.tracker.reset()
	if hit {
		e.report.DrainHits++
		e.drainHitCount.Inc()
	} else {
		e.report.DrainsExpired++
		e.drainExpCount.Inc()
	}
	e.instant("fleet.drain_release", at)
}

// activateEvent applies one matured incident to st. A fault landing on
// a drained-idle system interrupts no in-flight work, so the replay
// share of its recovery stall collapses to IdleStallFrac (floored at
// the checkpoint restore cost): a pure replay pays almost nothing, and
// a node loss still pays the full rebuild on the remapped TSPs but not
// the replay that normally precedes it. A capacity loss consumes a
// pre-warmed standby when one is warming, hiding the already-paid share
// of the warmup.
func (e *engine) activateEvent(st *sysState, ev workloads.FaultEvent) {
	st.next++
	nextStart := math.Inf(1)
	if st.next < len(st.events) {
		nextStart = st.events[st.next].StartUS
	}
	if st.draining() {
		if st.sys.Idle(ev.StartUS) {
			rebuild := 0.0
			if ev.Kind != workloads.KindReplay {
				rebuild = e.cfg.Fault.ReplayStallUS
			}
			reduced := rebuild + (ev.ReplayUS-rebuild)*e.cfg.Policy.Drain.IdleStallFrac
			if r := rebuild + e.cfg.Fault.Checkpoint.RestoreUS; reduced < r {
				reduced = r
			}
			if reduced < ev.ReplayUS {
				ev.ReplayUS = reduced
				st.idleReplays++
				e.report.IdleReplays++
				e.idleCount.Inc()
				e.instant("fleet.idle_replay", ev.StartUS)
			}
		}
		e.releaseDrain(st, ev.StartUS, true)
	}
	st.sys.Activate(ev.Incident, nextStart)
	st.incidents++
	e.incCount.Inc()
	switch ev.Kind {
	case workloads.KindReplay:
		st.replays++
		e.replayCount.Inc()
	case workloads.KindFailover:
		st.failovers++
		e.failCount.Inc()
	case workloads.KindCapacityLoss:
		st.losses++
		e.lossCount.Inc()
		// Spare policy: a post-spare capacity loss is the signal that
		// the fleet is short a system — power on the next standby. A
		// pre-warmed standby only owes the unpaid share of its warmup.
		if e.nextStandby < len(e.systems) {
			sp := &e.systems[e.nextStandby]
			sp.activeAtUS = ev.StartUS + e.cfg.WarmupUS
			if len(e.prewarmedAt) > 0 {
				ready := e.prewarmedAt[0] + e.cfg.WarmupUS
				e.prewarmedAt = e.prewarmedAt[1:]
				if ready < ev.StartUS {
					ready = ev.StartUS
				}
				sp.activeAtUS = ready
				e.report.PrewarmHits++
				e.instant("fleet.prewarm_hit", ev.StartUS)
			}
			e.nextStandby++
			e.report.SpareActivations++
			e.activationCount.Inc()
		}
	}
}

// instant stamps a policy decision on the fleet trace track (no-op
// without a recorder).
func (e *engine) instant(name string, atUS float64) {
	if e.rec == nil {
		return
	}
	e.rec.InstantCycles(obs.PidHost, fleetTid, name, clock.CyclesOfUS(atUS))
}

// wireObs resolves metric handles on the config's recorder; all are
// nil-safe without one.
func (e *engine) wireObs() {
	e.rec = e.cfg.Recorder
	if e.rec == nil {
		return
	}
	e.reqCount = e.rec.Counter("fleet.requests")
	e.shedCount = e.rec.Counter("fleet.shed_requests")
	e.rebalCount = e.rec.Counter("fleet.rebalanced_requests")
	e.violCount = e.rec.Counter("fleet.slo_violations")
	e.incCount = e.rec.Counter("fleet.incidents")
	e.replayCount = e.rec.Counter("fleet.replays")
	e.failCount = e.rec.Counter("fleet.failovers")
	e.lossCount = e.rec.Counter("fleet.capacity_losses")
	e.activationCount = e.rec.Counter("fleet.spare_activations")
	if e.cfg.Policy.Drain.Enabled() {
		e.rec.SetThreadName(obs.PidHost, fleetTid, "fleet-policy")
		e.drainCount = e.rec.Counter("fleet.policy.drains")
		e.drainHitCount = e.rec.Counter("fleet.policy.drain_hits")
		e.drainExpCount = e.rec.Counter("fleet.policy.drains_expired")
		e.drainedReqCount = e.rec.Counter("fleet.policy.drained_requests")
		e.prewarmCount = e.rec.Counter("fleet.policy.prewarms")
		e.idleCount = e.rec.Counter("fleet.policy.idle_replays")
	}
	if e.cfg.Policy.Shed.Enabled() {
		e.priShedCount = e.rec.Counter("fleet.policy.priority_shed")
	}
	if e.rec.SeriesCadence() > 0 {
		// Per-system backlog/capacity tracks plus the active-system count,
		// sampled on a deterministic simulated-time grid (512 points over
		// the horizon).
		e.sampleEveryUS = e.horizonUS / 512
		e.nextSampleUS = e.sampleEveryUS
		e.activeSeries = e.rec.Series("fleet.active_systems", obs.PidHost)
		if e.cfg.Policy.Drain.Enabled() {
			e.drainingSeries = e.rec.Series("fleet.draining_systems", obs.PidHost)
		}
		for i := range e.systems {
			st := &e.systems[i]
			st.backlogSeries = e.rec.Series("fleet.backlog_us", obs.PidHost, obs.Li("sys", i))
			st.capacitySeries = e.rec.Series("fleet.capacity_centi", obs.PidHost, obs.Li("sys", i))
		}
	}
}

// sample records the per-system series on the deterministic grid.
func (e *engine) sample(t float64) {
	if e.sampleEveryUS == 0 || t < e.nextSampleUS {
		return
	}
	cyc := clock.CyclesOfUS(t)
	active, draining := int64(0), int64(0)
	for i := range e.systems {
		st := &e.systems[i]
		if !st.routable(t) {
			continue
		}
		active++
		if st.draining() {
			draining++
		}
		st.backlogSeries.Add(cyc, int64(st.sys.EarliestStart(t)-t))
		st.capacitySeries.Add(cyc, int64(100*st.sys.CapacityFrac()+0.5))
	}
	e.activeSeries.Add(cyc, active)
	e.drainingSeries.Add(cyc, draining)
	for e.nextSampleUS <= t {
		e.nextSampleUS += e.sampleEveryUS
	}
}

// finish folds the accumulated state into the report.
func (e *engine) finish() {
	cfg := e.cfg
	r := &e.report
	r.Systems = cfg.Systems
	r.Standby = cfg.Standby
	r.HorizonDays = cfg.HorizonDays
	r.Seed = cfg.Seed
	r.SLOTargetUS = cfg.SLOTargetUS
	r.WindowUS = cfg.WindowUS
	r.Served = e.hist.count
	var good int64
	for w, tot := range e.winTotal {
		if tot == 0 {
			continue
		}
		r.Windows++
		good += e.winGood[w]
		frac := float64(e.winGood[w]) / float64(tot)
		if frac >= 0.999 {
			r.WindowsMeeting999++
		}
		if frac >= 0.9999 {
			r.WindowsMeeting9999++
		}
	}
	if r.Requests > 0 {
		r.Attainment = float64(good) / float64(r.Requests)
	}
	if r.Windows > 0 {
		r.WindowAttainment999 = float64(r.WindowsMeeting999) / float64(r.Windows)
		r.WindowAttainment9999 = float64(r.WindowsMeeting9999) / float64(r.Windows)
	}
	r.P50US = e.hist.percentile(50)
	r.P99US = e.hist.percentile(99)
	r.P999US = e.hist.percentile(99.9)
	r.P9999US = e.hist.percentile(99.99)
	r.MaxUS = e.hist.maxUS
	// Per-class rolling attainment against each class's own SLO target.
	for ci := range r.Classes {
		cr := &r.Classes[ci]
		var good int64
		for w, tot := range e.classWinTotal[ci] {
			if tot == 0 {
				continue
			}
			cr.Windows++
			good += e.classWinGood[ci][w]
			if float64(e.classWinGood[ci][w])/float64(tot) >= 0.999 {
				cr.WindowsMeeting999++
			}
		}
		if cr.Requests > 0 {
			cr.Attainment = float64(good) / float64(cr.Requests)
		}
		if cr.Windows > 0 {
			cr.WindowAttainment999 = float64(cr.WindowsMeeting999) / float64(cr.Windows)
		}
		cr.P50US = e.classHist[ci].percentile(50)
		cr.P99US = e.classHist[ci].percentile(99)
		cr.P999US = e.classHist[ci].percentile(99.9)
	}
	r.PerSystem = make([]SystemReport, len(e.systems))
	for i := range e.systems {
		st := &e.systems[i]
		sr := SystemReport{
			ID:                i,
			Standby:           st.standby,
			ActivatedAtUS:     st.activeAtUS,
			Requests:          st.requests,
			Incidents:         st.incidents,
			Replays:           st.replays,
			Failovers:         st.failovers,
			CapacityLosses:    st.losses,
			SparesLeft:        st.tally.SparesLeft,
			FinalCapacityFrac: st.sys.CapacityFrac(),
			StallUS:           st.sys.StallUS(),
			Drains:            st.drains,
			IdleReplays:       st.idleReplays,
			CadenceTightens:   st.tally.CadenceTightens,
			CadenceRelaxes:    st.tally.CadenceRelaxes,
			FinalCadenceUS:    st.tally.FinalCadenceUS,
		}
		r.CadenceTightens += st.tally.CadenceTightens
		r.CadenceRelaxes += st.tally.CadenceRelaxes
		wall := e.horizonUS - st.activeAtUS
		if st.standby && !st.activated {
			sr.ActivatedAtUS = -1
			sr.SparesLeft = cfg.Fault.Spares
			wall = 0
		}
		sr.AvailableFrac = st.sys.AvailableFrac(wall)
		r.Incidents += st.incidents
		r.Replays += st.replays
		r.Failovers += st.failovers
		r.CapacityLosses += st.losses
		r.PerSystem[i] = sr
	}
}
