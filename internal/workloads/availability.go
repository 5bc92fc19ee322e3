package workloads

// Availability vs. MTBF (§4.5): the recovery ladder turns hardware faults
// into serving incidents — a replay stall when the fault is repairable, a
// stall plus capacity loss once the spares run out. Sweeping the mean time
// between faults shows where a deployment's availability budget actually
// goes: frequent faults burn wall time in replays long before they exhaust
// the spares.

import (
	"fmt"
	"math"

	"repro/internal/serve"
	"repro/internal/sim"
)

// AvailabilityPoint is one MTBF level's serving outcome.
type AvailabilityPoint struct {
	MTBFHours float64
	// Faults drawn inside the run's horizon; Replays recovered with a
	// stall only, Failovers consumed a spare.
	Faults, Replays, Failovers int
	// SparesLeft after the run (0 means later faults degraded capacity).
	SparesLeft int
	// AvailableFrac, P99US, MaxUS, DegradedFrac summarize the serving run
	// through those incidents.
	AvailableFrac float64
	P99US         float64
	MaxUS         float64
	DegradedFrac  float64
}

// Checkpointing describes the epoch-barrier checkpointing the runtime's
// recovery ladder uses to shorten replay stalls. The zero value means
// checkpointing is off: every replay re-executes from cycle 0.
type Checkpointing struct {
	// CadenceUS is the capture interval in host time. A fault strikes on
	// average mid-epoch, so the work a resumed replay re-executes is the
	// time since the last barrier.
	CadenceUS float64
	// RestoreUS is the fixed cost of decoding and re-emplacing a
	// snapshot before the resumed run starts.
	RestoreUS float64
}

func (c Checkpointing) enabled() bool { return c.CadenceUS > 0 }

// replayStall is the serving-visible stall of one repairable fault at
// host time at: the full cycle-0 replay without checkpointing, else the
// restore cost plus the re-executed epoch remainder — never more than
// the cycle-0 replay it replaces (the ladder falls back rather than
// resume at a loss).
func (c Checkpointing) replayStall(at, replayStallUS float64) float64 {
	if !c.enabled() {
		return replayStallUS
	}
	stall := c.RestoreUS + math.Mod(at, c.CadenceUS)
	if stall > replayStallUS {
		return replayStallUS
	}
	return stall
}

// AvailabilityVsMTBF sweeps mean-time-between-faults levels over one
// serving scenario. For each level it draws a deterministic fault
// schedule (exponential gaps, seeded per level), classifies each fault —
// replay-only with probability replayFrac, node failover otherwise — and
// plays the resulting incidents through serve.RunDegraded. Each failover
// consumes one of spares; once they are gone every further failover
// removes 1/(spares+1) of capacity. Replay stalls cost replayStallUS;
// failovers cost an additional rebuild of the same length.
//
// ckpt models the ladder's checkpointing: repairable faults stall for the
// restore cost plus the mid-epoch remainder instead of the full replay.
// Failovers are unchanged — a snapshot captured under the old device→chip
// mapping is useless after the remap, so the rebuilt run starts from
// cycle 0 either way. The zero value is no checkpointing.
func AvailabilityVsMTBF(cfg serve.Config, mtbfHours []float64, spares int, replayFrac, replayStallUS float64, seed uint64, ckpt Checkpointing) ([]AvailabilityPoint, error) {
	if cfg.Requests < 1 || cfg.ArrivalRatePerSec <= 0 {
		return nil, fmt.Errorf("workloads: invalid serve config %+v", cfg)
	}
	// The run's horizon: expected arrival span plus drain slack.
	horizonUS := float64(cfg.Requests) / cfg.ArrivalRatePerSec * 1e6 * 1.1
	rng := sim.NewRNG(seed)
	var out []AvailabilityPoint
	for li, mtbf := range mtbfHours {
		profile := FaultProfile{
			MTBFHours:     mtbf,
			Spares:        spares,
			ReplayFrac:    replayFrac,
			ReplayStallUS: replayStallUS,
			Checkpoint:    ckpt,
		}
		if err := profile.Validate(); err != nil {
			return nil, err
		}
		events, tally := profile.Draw(rng.Fork(uint64(li)), horizonUS)
		pt := AvailabilityPoint{
			MTBFHours:  mtbf,
			Faults:     tally.Faults,
			Replays:    tally.Replays,
			Failovers:  tally.Failovers,
			SparesLeft: tally.SparesLeft,
		}
		res, err := serve.RunDegraded(cfg, Incidents(events))
		if err != nil {
			return nil, err
		}
		pt.AvailableFrac = res.AvailableFrac
		pt.P99US = res.P99US
		pt.MaxUS = res.MaxUS
		pt.DegradedFrac = float64(res.DegradedRequests) / float64(res.Requests)
		out = append(out, pt)
	}
	return out, nil
}
