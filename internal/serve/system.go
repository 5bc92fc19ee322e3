package serve

// System is the single-deployment serving state machine RunDegraded is
// built on, extracted so the fleet simulator (internal/fleet) can route
// one shared request stream across N of them. A deployment is modeled as
// one initiation-interval server: the pipeline admits a new inference
// every ServiceUS (scaled by the current capacity factor), PipelineDepth
// are in flight, and a request's latency is wait-for-slot plus the fill
// residency. Incidents stall the server and may change its capacity.
//
// Stall accounting merges overlapping incident windows: two faults whose
// recovery stalls overlap cost the union of their windows, not the sum,
// so StallUS never exceeds wall time and availability never undershoots.

import (
	"fmt"
	"math"
)

// System tracks one deployment's serving state through time. The zero
// value is not ready; use NewSystem.
type System struct {
	serviceUS float64
	depth     int
	// slotFree is when the next initiation slot opens.
	slotFree float64
	// stallEnd is the end of the latest recovery-stall window.
	stallEnd float64
	// scale is 1/capacity: service times stretch by this factor.
	scale float64
	// stallUS is total stalled wall time, overlapping windows merged.
	stallUS float64
	// lastDone is the completion time of the latest-finishing request.
	lastDone float64
	// busyUS is the total booked initiation time (utilization numerator).
	busyUS float64
	// draining marks the system as quiescing ahead of a predicted fault:
	// routers should send new traffic to peers while the in-flight
	// backlog runs dry. Purely advisory — Admit still works, so a fleet
	// with nowhere else to route can override the drain.
	draining bool
}

// NewSystem returns a healthy, idle deployment.
func NewSystem(serviceUS float64, depth int) *System {
	return &System{serviceUS: serviceUS, depth: depth, scale: 1}
}

// Activate applies one incident. nextStartUS is the start of the next
// incident in the schedule (math.Inf(1) when this is the last one): a
// total outage (CapacityFrac == 0) stalls the system until then, because
// only the next recovery event can bring capacity back. Callers must
// reject schedules that end on a total outage — see ValidateIncidents —
// otherwise the stall window is unbounded.
//
// Overlapping stall windows are merged: only the portion of
// [StartUS, end) past the previous stallEnd adds to StallUS.
func (s *System) Activate(inc Incident, nextStartUS float64) {
	end := inc.StartUS + inc.ReplayUS
	if inc.CapacityFrac > 0 {
		s.scale = 1 / inc.CapacityFrac
	} else if end < nextStartUS {
		// Full stop: no capacity until the next incident's recovery.
		end = nextStartUS
	}
	begin := inc.StartUS
	if begin < s.stallEnd {
		begin = s.stallEnd
	}
	if end > begin {
		s.stallUS += end - begin
	}
	if end > s.stallEnd {
		s.stallEnd = end
	}
	if s.stallEnd > s.slotFree {
		s.slotFree = s.stallEnd
	}
}

// EarliestStart returns when a request arriving at t would claim its
// initiation slot — the load-balancing signal the fleet router compares
// across systems.
func (s *System) EarliestStart(t float64) float64 {
	if s.slotFree > t {
		return s.slotFree
	}
	return t
}

// Admit books the next initiation slot for a request arriving at t whose
// service time is the system's ServiceUS times mult (a traffic-class
// weight), stretched by the current capacity scale. It returns the slot
// start and the completion time.
func (s *System) Admit(t, mult float64) (start, done float64) {
	service := s.serviceUS * s.scale * mult
	start = s.EarliestStart(t)
	s.slotFree = start + service
	s.busyUS += service
	done = start + float64(s.depth)*service
	if done > s.lastDone {
		s.lastDone = done
	}
	return start, done
}

// SetCapacity forces the capacity fraction without a stall. The fleet
// simulator uses it when a standby system powers on carrying fault
// history that accrued while it was off: the hardware state (lost nodes)
// applies, the serving-visible stalls do not. Non-positive fractions are
// ignored.
func (s *System) SetCapacity(frac float64) {
	if frac > 0 {
		s.scale = 1 / frac
	}
}

// SetDraining marks (or clears) the pre-fault quiesce state the
// predictive-drain policy uses to steer home traffic to peers.
func (s *System) SetDraining(d bool) { s.draining = d }

// Draining reports whether the system is quiescing ahead of a predicted
// fault.
func (s *System) Draining() bool { return s.draining }

// SlotFreeUS returns when the next initiation slot opens:
// EarliestStart(t) is the later of it and t.
func (s *System) SlotFreeUS() float64 { return s.slotFree }

// Idle reports whether the system has no booked work at t — a drained
// system is idle once its admitted backlog has run dry, so a fault
// landing then interrupts nothing and skips the replay share of its
// recovery stall.
func (s *System) Idle(t float64) bool { return s.slotFree <= t }

// OverBound is the class-aware shed-first test: it reports whether a
// request arriving at t would wait longer than boundUS for its
// initiation slot. A non-positive bound never sheds.
func (s *System) OverBound(t, boundUS float64) bool {
	return boundUS > 0 && s.EarliestStart(t)-t > boundUS
}

// InStall reports whether t falls inside a recovery-stall window.
func (s *System) InStall(t float64) bool { return t < s.stallEnd }

// StallEndUS returns the end of the latest recovery-stall window.
func (s *System) StallEndUS() float64 { return s.stallEnd }

// StallUS returns the merged stalled wall time so far.
func (s *System) StallUS() float64 { return s.stallUS }

// Scale returns the current service-time stretch factor (1 = healthy).
func (s *System) Scale() float64 { return s.scale }

// CapacityFrac returns the current capacity fraction (1 = healthy).
func (s *System) CapacityFrac() float64 { return 1 / s.scale }

// LastDoneUS returns the completion time of the latest-finishing request.
func (s *System) LastDoneUS() float64 { return s.lastDone }

// BusyUS returns the total initiation time booked so far.
func (s *System) BusyUS() float64 { return s.busyUS }

// AvailableFrac returns 1 − merged-stall/wall for a run that ended at
// wallUS (clamped to [0, 1]; 1 when wallUS is not positive).
func (s *System) AvailableFrac(wallUS float64) float64 {
	if wallUS <= 0 || s.stallUS <= 0 {
		return 1
	}
	f := 1 - s.stallUS/wallUS
	if f < 0 {
		return 0
	}
	return f
}

// ValidateIncidents checks a sorted incident schedule: non-finite start
// times, negative replay costs and capacity fractions outside [0, 1] are
// rejected, and so is a
// schedule whose final incident is a total outage (CapacityFrac == 0) —
// nothing after it could ever restore capacity, so the stall would be
// unbounded.
func ValidateIncidents(incs []Incident) error {
	for i, inc := range incs {
		if math.IsNaN(inc.StartUS) || math.IsInf(inc.StartUS, 0) ||
			inc.ReplayUS < 0 || inc.CapacityFrac < 0 || inc.CapacityFrac > 1 ||
			math.IsNaN(inc.ReplayUS) || math.IsNaN(inc.CapacityFrac) || math.IsInf(inc.ReplayUS, 0) {
			return fmt.Errorf("serve: invalid incident %+v", inc)
		}
		if inc.CapacityFrac == 0 && i == len(incs)-1 {
			return fmt.Errorf("serve: incident %+v is a total outage with nothing after it to restore capacity", inc)
		}
	}
	return nil
}
