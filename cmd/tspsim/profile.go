// The profile experiment: exercise the flight recorder end to end.
//
// It runs the 8-stage pipeline workload with barrier-cadence series
// sampling armed, feeds the recorded trace through the post-run profiler
// (internal/prof), prints the deterministic report, and verifies the
// profiler's headline invariant: the extracted critical path — compute +
// link-transit + barrier-wait — accounts for the finish cycle exactly. A
// second topology (the 16-chip ring all-reduce) cross-checks the same
// invariant under a recorder of its own.
package main

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/route"
	rtime "repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// profileWaves is the pipeline depth of the profile workload: six waves
// through the eight stages of one node.
const profileWaves = 6

// profilePipeline builds the profile experiment's pipeline workload
// recording into rec: one node (8 chips = 8 stages), six waves, two
// matmuls per stage, stage 0's inputs and every stage's bias preloaded.
func profilePipeline(e *env, rec *obs.Recorder) (*rtime.Cluster, error) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		return nil, err
	}
	progs, err := rtime.PipelinePrograms(sys, profileWaves, 2)
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(e, sys, progs, rec)
	if err != nil {
		return nil, err
	}
	for c := 0; c < sys.NumTSPs(); c++ {
		stage := c % topo.TSPsPerNode
		bias := tsp.VectorOf([]float32{float32(stage + 1), 0.5, -float32(stage), 2})
		cl.Chip(c).SetStream(rtime.PipeBias, bias)
		if stage == 0 {
			for w := 0; w < profileWaves; w++ {
				in := tsp.VectorOf([]float32{float32(w + 1), float32(2*w + 1), 0.5 * float32(w), -float32(w % 3)})
				cl.Chip(c).Mem.Write(mem.Addr{Offset: w}, in[:])
			}
		}
	}
	return cl, nil
}

// pathTotal is the critical path's full attribution.
func pathTotal(rep *prof.Report) int64 {
	return rep.ComputeCycles + rep.LinkCycles + rep.WaitCycles
}

// ringCrossCheck verifies path == finish on the canonical ring all-reduce
// under a recorder of its own, so its spans don't dilute the pipeline
// report a surrounding -profile-report invocation is building.
func ringCrossCheck(e *env) error {
	rec := obs.New()
	rec.SetSeriesCadence(2 * route.HopCycles)
	cl, _, err := checkpointRing(e, rec)
	if err != nil {
		return err
	}
	finish, err := cl.Run()
	if err != nil {
		return err
	}
	rep, err := prof.Analyze(rec.State(), prof.Options{})
	if err != nil {
		return err
	}
	total := pathTotal(rep)
	fmt.Fprintf(e.out, "ring all-reduce cross-check: finish %d, critical path %d (compute %d + link %d + wait %d): ",
		finish, total, rep.ComputeCycles, rep.LinkCycles, rep.WaitCycles)
	if total != finish {
		fmt.Fprintln(e.out, "MISMATCH")
		return fmt.Errorf("profile: ring critical path %d != finish %d", total, finish)
	}
	fmt.Fprintln(e.out, "exact")
	return nil
}

// profileExp runs the flight-recorder demonstration. When run() made a
// recorder (-series / -profile-report / -trace / -metrics), the pipeline
// workload runs under it so the exported files carry this run; otherwise
// a recorder of its own keeps the experiment self-contained.
func profileExp(e *env) error {
	fmt.Fprintln(e.out, "== flight recorder: barrier-sampled series + post-run profiler ==")

	rec := e.rec
	if rec == nil {
		rec = obs.New()
	}
	// Arm a cadence only for this experiment, so the experiments after
	// it on the run's recorder sample no series nobody asked for.
	if rec.SeriesCadence() == 0 {
		rec.SetSeriesCadence(2 * route.HopCycles)
		defer rec.SetSeriesCadence(0)
	}
	// Under `-exp all` with a run recorder, earlier experiments have
	// already deposited spans; the report then profiles the whole sweep
	// and the run-vs-report finish comparison is skipped.
	fresh := rec.NumEvents() == 0

	cl, err := profilePipeline(e, rec)
	if err != nil {
		return err
	}
	finish, err := cl.Run()
	if err != nil {
		return err
	}
	rep, err := prof.Analyze(rec.State(), prof.Options{TopLinks: 8, MaxPathSegments: 24})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "pipeline workload: 8 stages x %d waves, finish cycle %d, %d series sampled every %d cycles\n\n",
		profileWaves, finish, rec.NumSeries(), rec.SeriesCadence())
	if err := rep.Render(e.out); err != nil {
		return err
	}

	total := pathTotal(rep)
	fmt.Fprintf(e.out, "\ncritical path total %d vs report finish %d: ", total, rep.FinishCycle)
	if total != rep.FinishCycle {
		fmt.Fprintln(e.out, "MISMATCH")
		return fmt.Errorf("profile: critical path %d != finish %d", total, rep.FinishCycle)
	}
	fmt.Fprintln(e.out, "exact")
	if fresh && rep.FinishCycle != finish {
		return fmt.Errorf("profile: report finish %d != run finish %d", rep.FinishCycle, finish)
	}

	return ringCrossCheck(e)
}
