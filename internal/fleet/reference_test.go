// The fleet engine's per-arrival oracle.
//
// referenceRun retains, verbatim in structure, the per-arrival loop the
// state-boundary engine replaced: every arrival advances every system,
// the router rescans the whole fleet whenever home cannot start the
// request at once, and the priority-shedding pressure signal rescans it
// again.
// It shares the engine's set-up and per-system state machine (newEngine,
// advance, sample, finish) and differs only in when they run. It is the
// oracle for TestFleetEngineMatchesReference and FuzzFleetConfig: Run
// must produce byte-identical reports and recorder exports. It is
// compiled into the tests only, never a second production path — keep it
// dumb.
package fleet

import "math"

// referenceRun is Run with a full advance pass and full routing scans
// on every arrival.
func referenceRun(cfg Config) (*SLOReport, error) {
	e, root, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	cfg = e.cfg
	arr := root.Fork(arrivalStream)
	mix := root.Fork(mixStream)
	meanGapUS := 1e6 / cfg.ArrivalRatePerSec

	t := 0.0
	var reqIdx int64
	for {
		// Open-loop Poisson arrivals: exponential gaps via inverse
		// transform, exactly the serve package's process.
		u := arr.Float64()
		if u <= 0 {
			u = 1e-12
		}
		t += -math.Log(u) * meanGapUS
		if t >= e.horizonUS {
			break
		}
		// Traffic class (its own stream, so enabling a mix never perturbs
		// the arrival process).
		mult := 1.0
		class := -1
		if len(cfg.Mix) > 0 {
			x := mix.Float64()
			acc := 0.0
			for ci, cl := range cfg.Mix {
				acc += cl.Share
				mult = cl.ServiceMult
				class = ci
				if x < acc {
					break
				}
			}
		}
		// Advance every system through the incidents, leading indicators,
		// and drain expiries that matured before this arrival, in index
		// order and per-system time order — deterministic.
		for i := range e.systems {
			e.advance(&e.systems[i], t)
		}
		e.sample(t)

		// Route: requests have an affinity home (round-robin over the
		// initial actives); a request leaves home only when home cannot
		// start it immediately — a stall, a backlog, or a predictive
		// drain — and then joins the non-draining system with the
		// earliest free slot (drain-and-redistribute). Draining systems
		// take traffic again only when every routable system drains.
		home := int(reqIdx % int64(cfg.Systems))
		reqIdx++
		chosen, bestEst := home, e.systems[home].sys.EarliestStart(t)
		homeDraining := e.systems[home].draining()
		if bestEst > t || homeDraining {
			if homeDraining {
				chosen, bestEst = -1, math.Inf(1)
			}
			for i := range e.systems {
				st := &e.systems[i]
				if !st.routable(t) || st.draining() {
					continue
				}
				if est := st.sys.EarliestStart(t); est < bestEst {
					chosen, bestEst = i, est
				}
			}
			if chosen < 0 {
				// The whole routable fleet is draining: the drain is
				// advisory, home serves anyway.
				chosen, bestEst = home, e.systems[home].sys.EarliestStart(t)
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
		// never shed a request the fleet had capacity for.
		bound, tightened := e.shedBound(class, e.cfg.Policy.Shed.Enabled() && e.referencePressure(t))
		if e.systems[chosen].sys.OverBound(t, bound) {
			for i := range e.systems {
				st := &e.systems[i]
				if !st.routable(t) || !st.draining() {
					continue
				}
				if est := st.sys.EarliestStart(t); est < bestEst {
					chosen, bestEst = i, est
				}
			}
		}
		if e.systems[chosen].sys.OverBound(t, bound) {
			e.report.Shed++
			e.shedCount.Inc()
			if class >= 0 {
				e.report.Classes[class].Shed++
				if tightened && !e.systems[chosen].sys.OverBound(t, e.cfg.ShedAboveUS) {
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
		st := &e.systems[chosen]
		_, done := st.sys.Admit(t, mult)
		st.requests++
		lat := done - t
		e.hist.add(lat)
		target := cfg.SLOTargetUS
		if class >= 0 {
			target = e.classTarget(cfg.Mix[class])
			e.classHist[class].add(lat)
			e.report.Classes[class].Served++
		}
		if lat <= target {
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

// referencePressure reports whether any routable system is draining or
// inside a recovery stall at t — the signal that arms priority
// shedding.
func (e *engine) referencePressure(t float64) bool {
	for i := range e.systems {
		st := &e.systems[i]
		if st.routable(t) && (st.draining() || st.sys.InStall(t)) {
			return true
		}
	}
	return false
}
