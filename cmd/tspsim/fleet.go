package main

// The fleet experiment: months of §4.5 incidents across N systems, end
// to end. One headline run prints the SLOReport; the sweep grids spare
// policy x checkpoint cadence x traffic mix and prints the attainment
// table EXPERIMENTS.md reproduces. Everything is seeded — rerunning the
// experiment reprints identical bytes.

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/workloads"
)

// fleetBase is the headline scenario: 8 systems of large-batch
// inference at 75% of fleet capacity for a month, 50h MTBF per system,
// three spares each, epoch checkpointing at a 5s cadence, and a
// two-minute shed bound.
func fleetBase(e *env) fleet.Config {
	return fleet.Config{
		Systems:           8,
		Standby:           2,
		ServiceUS:         1e7, // 10s per batch inference
		PipelineDepth:     2,
		ArrivalRatePerSec: 0.6, // fleet capacity is 0.8/s
		HorizonDays:       30,
		Seed:              42,
		Fault: workloads.FaultProfile{
			MTBFHours:     50,
			Spares:        3,
			ReplayFrac:    0.7,
			ReplayStallUS: 6e8, // 10 min of cycle-0 replay
			Checkpoint:    workloads.Checkpointing{CadenceUS: 5e6, RestoreUS: 1e6},
		},
		SLOTargetUS: 6e7,   // 60s
		ShedAboveUS: 1.2e8, // shed rather than wait 2 min for a slot
		WarmupUS:    6e7,
		Recorder:    e.rec,
	}
}

func fleetExp(e *env) error {
	fmt.Fprintln(e.out, "fleet-level SLO — months of incidents across N systems, end to end")
	rep, err := fleet.Run(fleetBase(e))
	if err != nil {
		return err
	}
	fmt.Fprint(e.out, rep.Render())

	fmt.Fprintln(e.out, "\nsweep — spare policy x checkpoint cadence x traffic mix (10 stressed days each)")
	base := fleetBase(e)
	base.HorizonDays = 10
	base.Fault.MTBFHours = 15 // 4x the headline fault rate: spares run out
	pts, err := fleet.Sweep(base, []int{0, 1, 2}, []float64{0, 2e7, 5e6}, []float64{0, 0.1})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%7s %11s %6s %12s %10s %10s %9s\n",
		"standby", "cadence(s)", "batch", "attainment", "win99.9%", "p99.9(s)", "shed")
	for _, p := range pts {
		cad := "off"
		if p.CadenceUS > 0 {
			cad = fmt.Sprintf("%.0f", p.CadenceUS/1e6)
		}
		fmt.Fprintf(e.out, "%7d %11s %5.0f%% %12.6f %10.4f %10.1f %8.3f%%\n",
			p.Standby, cad, 100*p.HeavyShare, p.Attainment,
			p.WindowAttainment999, p.P999US/1e6, 100*p.ShedFrac)
	}
	fmt.Fprintln(e.out, "tighter cadences shorten every replay stall, spares re-arm capacity;")
	fmt.Fprintln(e.out, "identical seed => byte-identical SLOReport JSON on every rerun")

	return fleetPolicyAblation(e)
}

// fleetPolicyAblation prints the proactive-vs-reactive table: the shared
// stressed two-tier scenario under four policy stacks — reactive-only,
// predictive draining, draining + adaptive checkpoint cadence, and the
// full stack with per-class priority shedding.
func fleetPolicyAblation(e *env) error {
	fmt.Fprintln(e.out, "\nproactive vs reactive — policy ablation, stressed two-tier mix (14 days)")
	cfg, drain, adaptive, shed := fleet.StressedScenario()
	cfg.Recorder = e.rec
	pts, err := fleet.PolicySweep(cfg, drain, adaptive, shed)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "%14s %12s %9s %11s %7s %7s %5s %5s %8s %8s %8s\n",
		"policy", "attainment", "win99.9%", "t0win99.9%", "shed", "drains", "hits", "idle", "prewarm", "prished", "tighten")
	for _, p := range pts {
		fmt.Fprintf(e.out, "%14s %12.6f %9.4f %11.4f %6.3f%% %7d %5d %5d %8d %8d %8d\n",
			p.Name, p.Attainment, p.WindowAttainment999, p.Tier0Win999,
			100*p.ShedFrac, p.Drains, p.DrainHits, p.IdleReplays,
			p.PrewarmHits, p.PriorityShed, p.CadenceTightens)
	}
	fmt.Fprintln(e.out, "drains divert home traffic ahead of predicted faults (advisory — never a new shed),")
	fmt.Fprintln(e.out, "prewarmed standbys hide the warmup, bursts tighten the checkpoint cadence, and")
	fmt.Fprintln(e.out, "priority shedding spends the batch tier's slack to protect tier-0 99.9 attainment")
	return nil
}
