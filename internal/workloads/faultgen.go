package workloads

// Seeded incident generation: the MTBF-driven fault schedule behind
// AvailabilityVsMTBF, extracted so the fleet simulator (internal/fleet)
// can draw one independent schedule per system from a forked RNG stream.
// Each fault is classified through the §4.5 recovery ladder's semantics —
// repairable faults replay (shortened by checkpointing), node losses
// consume a spare, and post-spare losses shed capacity.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/serve"
	"repro/internal/sim"
)

// IncidentKind classifies one fault's recovery outcome.
type IncidentKind int

const (
	// KindReplay is a repairable fault: repair + re-characterize + replay
	// from the last clean barrier (or cycle 0 without checkpointing).
	KindReplay IncidentKind = iota
	// KindFailover is a node loss absorbed by a spare: replay plus a
	// rebuild on the remapped TSPs, full capacity afterwards.
	KindFailover
	// KindCapacityLoss is a node loss with the spares exhausted: the
	// remap squeezes the model onto fewer chips, shedding capacity.
	KindCapacityLoss
)

// String names the kind for reports and metric labels.
func (k IncidentKind) String() string {
	switch k {
	case KindReplay:
		return "replay"
	case KindFailover:
		return "failover"
	case KindCapacityLoss:
		return "capacity_loss"
	}
	return "unknown"
}

// FaultEvent is one scheduled fault: the serving-visible incident plus
// its ladder classification.
type FaultEvent struct {
	serve.Incident
	Kind IncidentKind
}

// FaultProfile describes one system's fault model: how often faults
// strike, how they split between replays and node losses, what a
// recovery stall costs, and how checkpointing shortens it.
type FaultProfile struct {
	// MTBFHours is the mean time between faults.
	MTBFHours float64
	// Spares is how many node losses the system absorbs at full capacity.
	Spares int
	// ReplayFrac is the probability a fault is repairable (replay-only);
	// the rest are node losses.
	ReplayFrac float64
	// ReplayStallUS is the serving-visible cost of one cycle-0 replay;
	// failovers cost an additional rebuild of the same length.
	ReplayStallUS float64
	// Checkpoint shortens replay stalls to restore + mid-epoch remainder.
	Checkpoint Checkpointing
	// Adaptive replaces the fixed Checkpoint.CadenceUS with a
	// burst-tightening / quiet-relaxing cadence controller (bounds in
	// µs). The zero value keeps the fixed cadence. Adaptation changes no
	// RNG draw — the fault times and classifications are byte-identical
	// to the static schedule; only the replay stalls re-price.
	Adaptive checkpoint.CadencePolicy
	// LeadUS enables leading-indicator emission (DrawWithIndicators):
	// each fault is preceded by a rising MBE/BER-excursion ramp spanning
	// LeadUS before it strikes, on top of low-level ambient noise. The
	// indicators come from streams forked off the schedule stream by
	// stable id, so emission never perturbs the fault schedule itself.
	// 0 disables emission.
	LeadUS float64
}

// Indicator-stream fork ids, far from any per-system id the fleet uses.
const (
	leadStream    uint64 = 1 << 41
	ambientStream uint64 = 1<<41 + 1
)

// Indicator-ramp shape: rampSamples readings per fault, climbing to
// [rampFloor, 1) at the last pre-fault sample; ambient noise stays below
// ambientCeil, so any drain threshold in (ambientCeil, rampFloor) sees
// every ramp and no ambient false positives.
const (
	rampSamples = 4
	rampFloor   = 0.7
	ambientCeil = 0.3
)

// IndicatorSample is one leading-indicator telemetry reading: a
// normalized MBE/BER-excursion level in [0, 1) at host time AtUS.
// Levels near 1 mean a fault is imminent.
type IndicatorSample struct {
	AtUS  float64
	Level float64
}

// Validate rejects non-physical profiles.
func (p FaultProfile) Validate() error {
	if p.MTBFHours <= 0 || math.IsNaN(p.MTBFHours) || math.IsInf(p.MTBFHours, 0) {
		return fmt.Errorf("workloads: MTBF %g must be positive and finite", p.MTBFHours)
	}
	// The negated comparisons also reject NaN.
	if p.Spares < 0 || !(p.ReplayFrac >= 0 && p.ReplayFrac <= 1) ||
		!(p.ReplayStallUS > 0) || math.IsInf(p.ReplayStallUS, 0) {
		return fmt.Errorf("workloads: invalid fault parameters %+v", p)
	}
	if !(p.Checkpoint.CadenceUS >= 0) || math.IsInf(p.Checkpoint.CadenceUS, 0) ||
		!(p.Checkpoint.RestoreUS >= 0) || math.IsInf(p.Checkpoint.RestoreUS, 0) ||
		(p.Checkpoint.enabled() && p.Checkpoint.RestoreUS > p.ReplayStallUS) {
		return fmt.Errorf("workloads: invalid checkpointing %+v", p.Checkpoint)
	}
	if err := p.Adaptive.Validate(); err != nil {
		return err
	}
	if p.Adaptive.Enabled() && p.Checkpoint.RestoreUS > p.ReplayStallUS {
		return fmt.Errorf("workloads: restore cost %g exceeds the cycle-0 replay %g it replaces",
			p.Checkpoint.RestoreUS, p.ReplayStallUS)
	}
	if p.LeadUS < 0 || math.IsNaN(p.LeadUS) || math.IsInf(p.LeadUS, 0) {
		return fmt.Errorf("workloads: lead window %g must be >= 0 and finite", p.LeadUS)
	}
	return nil
}

// IncidentTally summarizes one drawn schedule.
type IncidentTally struct {
	// Faults drawn inside the horizon; Replays recovered with a stall
	// only, Failovers consumed a spare, CapacityLosses shed capacity.
	Faults, Replays, Failovers, CapacityLosses int
	// SparesLeft after the schedule (0 means later faults degraded
	// capacity).
	SparesLeft int
	// FinalCapacity is the capacity fraction after the last fault.
	FinalCapacity float64
	// Adaptive-cadence footprint: adjustments taken by the controller and
	// the cadence in effect after the last fault (0 when adaptation is
	// off).
	CadenceTightens, CadenceRelaxes int
	FinalCadenceUS                  float64
}

// Draw generates the deterministic fault schedule for one system over
// horizonUS from the given RNG stream: exponential gaps at the profile's
// MTBF, each fault classified replay-or-failover, spares consumed in
// order, capacity shed once they are gone (floored at 10%). The draw
// order is fixed — one uniform for the gap, one for the classification —
// so a forked stream reproduces the schedule regardless of when other
// systems draw theirs.
func (p FaultProfile) Draw(r *sim.RNG, horizonUS float64) ([]FaultEvent, IncidentTally) {
	meanGapUS := p.MTBFHours * 3600 * 1e6
	tally := IncidentTally{SparesLeft: p.Spares, FinalCapacity: 1}
	// Adaptive cadence: the controller observes every fault (bursts are
	// bursts whatever the ladder rung) and re-prices repairable stalls
	// with the cadence in effect when the fault struck. It consumes no
	// randomness, so the schedule is byte-identical to the static draw.
	var ctl *checkpoint.CadenceController
	if p.Adaptive.Enabled() {
		ctl = checkpoint.NewCadenceController(p.Adaptive, p.Checkpoint.CadenceUS)
	}
	var events []FaultEvent
	at := 0.0
	capacity := 1.0
	for {
		u := r.Float64()
		if u <= 0 {
			u = 1e-12
		}
		at += -math.Log(u) * meanGapUS
		if at >= horizonUS {
			break
		}
		tally.Faults++
		ckpt := p.Checkpoint
		if ctl != nil {
			ckpt.CadenceUS = ctl.Observe(at)
		}
		ev := FaultEvent{Incident: serve.Incident{StartUS: at, ReplayUS: p.ReplayStallUS, CapacityFrac: capacity}}
		if r.Float64() < p.ReplayFrac {
			// Repairable: re-characterize and resume from the last
			// barrier (or replay from cycle 0 without checkpointing).
			tally.Replays++
			ev.Kind = KindReplay
			ev.ReplayUS = ckpt.replayStall(at, p.ReplayStallUS)
		} else {
			// Node loss: replay plus rebuild on the remapped TSPs. No
			// checkpoint shortcut — the remap invalidates snapshots.
			ev.ReplayUS += p.ReplayStallUS
			if tally.SparesLeft > 0 {
				tally.SparesLeft--
				tally.Failovers++
				ev.Kind = KindFailover
			} else {
				// Spares exhausted: the remap squeezes the model onto
				// fewer chips, shedding one node's worth of capacity.
				tally.Failovers++
				tally.CapacityLosses++
				capacity -= 1.0 / float64(p.Spares+1)
				if capacity < 0.1 {
					capacity = 0.1
				}
				ev.CapacityFrac = capacity
				ev.Kind = KindCapacityLoss
			}
		}
		events = append(events, ev)
	}
	tally.FinalCapacity = capacity
	if ctl != nil {
		tally.CadenceTightens = ctl.Tightens()
		tally.CadenceRelaxes = ctl.Relaxes()
		tally.FinalCadenceUS = ctl.Cadence()
	}
	return events, tally
}

// DrawWithIndicators is Draw plus the leading-indicator telemetry the
// fleet's predictive-drain policy watches. The fault schedule is
// byte-identical to Draw's (the indicator streams are forked off r by
// stable id, which never advances r), so arming indicators cannot
// perturb any existing result. With LeadUS == 0 the sample slice is nil.
//
// Emission model: ambient MBE/BER noise below ambientCeil on a fixed
// LeadUS grid across the horizon, and before each fault a rampSamples
// ramp climbing to [rampFloor, 1) — the §4.5 recharacterization
// precursor, visible LeadUS ahead of the stall it predicts.
func (p FaultProfile) DrawWithIndicators(r *sim.RNG, horizonUS float64) ([]FaultEvent, []IndicatorSample, IncidentTally) {
	lead := r.Fork(leadStream)
	ambient := r.Fork(ambientStream)
	events, tally := p.Draw(r, horizonUS)
	if p.LeadUS <= 0 {
		return events, nil, tally
	}
	// Sized once: the ambient grid holds at most horizonUS/LeadUS
	// readings (+1 absorbs the division's rounding), each fault at most
	// rampSamples.
	samples := make([]IndicatorSample, 0, int(horizonUS/p.LeadUS)+1+rampSamples*len(events))
	// Ambient grid: one low-level reading every LeadUS, each drawn from a
	// grid-indexed fork so the grid never shifts with the fault count.
	for k := int64(1); float64(k)*p.LeadUS < horizonUS; k++ {
		u := ambient.Fork(uint64(k)).Float64()
		samples = append(samples, IndicatorSample{AtUS: float64(k) * p.LeadUS, Level: ambientCeil * u})
	}
	// Pre-fault ramps: rampSamples readings inside (at-LeadUS, at),
	// levels climbing linearly to [rampFloor, 1) just before the fault.
	for i, ev := range events {
		er := lead.Fork(uint64(i))
		for j := 0; j < rampSamples; j++ {
			t := ev.StartUS - p.LeadUS*float64(rampSamples-j)/float64(rampSamples+1)
			if t <= 0 {
				continue
			}
			u := er.Float64()
			frac := float64(j+1) / rampSamples
			samples = append(samples, IndicatorSample{AtUS: t, Level: (rampFloor + (1-rampFloor)*u) * frac})
		}
	}
	slices.SortStableFunc(samples, func(a, b IndicatorSample) int { return cmp.Compare(a.AtUS, b.AtUS) })
	return events, samples, tally
}

// Incidents strips the classification, returning the serving-visible
// schedule serve.RunDegraded consumes.
func Incidents(events []FaultEvent) []serve.Incident {
	if len(events) == 0 {
		return nil
	}
	incs := make([]serve.Incident, len(events))
	for i, ev := range events {
		incs[i] = ev.Incident
	}
	return incs
}
