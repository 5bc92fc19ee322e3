package prof_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/route"
	rtime "repro/internal/runtime"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// runRecorded builds the programs gen makes for a system of nodes nodes,
// preloads each chip, and runs the cluster at workers under a fresh
// recorder with series sampling armed. It returns the finish cycle and the
// obs state.
func runRecorded(t *testing.T, nodes, workers int, gen func(*topo.System) ([]*isa.Program, error), preload func(cl *rtime.Cluster, c int)) (int64, *obs.State) {
	t.Helper()
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := gen(sys)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rtime.New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	rec.SetSeriesCadence(2 * route.HopCycles)
	cl.SetRecorder(rec)
	cl.SetWorkers(workers)
	for c := 0; c < sys.NumTSPs(); c++ {
		preload(cl, c)
	}
	finish, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return finish, rec.State()
}

// runRing runs the two-node ring all-reduce.
func runRing(t *testing.T, workers int) (int64, *obs.State) {
	gen := func(sys *topo.System) ([]*isa.Program, error) { return rtime.RingAllReducePrograms(sys, 7, 2) }
	return runRecorded(t, 2, workers, gen, func(cl *rtime.Cluster, c int) {
		v := tsp.VectorOf([]float32{float32(c + 1), 0.5 * float32(c)})
		cl.Chip(c).SetStream(rtime.RingCur, v)
		cl.Chip(c).SetStream(rtime.RingAcc, v)
	})
}

// runPipeline runs the one-node 8-stage pipeline, four waves deep.
func runPipeline(t *testing.T) (int64, *obs.State) {
	const waves = 4
	gen := func(sys *topo.System) ([]*isa.Program, error) { return rtime.PipelinePrograms(sys, waves, 2) }
	return runRecorded(t, 1, 1, gen, func(cl *rtime.Cluster, c int) {
		stage := c % topo.TSPsPerNode
		cl.Chip(c).SetStream(rtime.PipeBias, tsp.VectorOf([]float32{float32(stage + 1), 2}))
		for w := 0; stage == 0 && w < waves; w++ {
			in := tsp.VectorOf([]float32{float32(w + 1), float32(w)})
			cl.Chip(c).Mem.Write(mem.Addr{Offset: w}, in[:])
		}
	})
}

func pathTotal(r *prof.Report) int64 {
	return r.ComputeCycles + r.LinkCycles + r.WaitCycles
}

// TestAnalyzeRejectsEmptyState: no state or no chip spans is an error,
// not a zero report.
func TestAnalyzeRejectsEmptyState(t *testing.T) {
	if _, err := prof.Analyze(nil, prof.Options{}); err == nil {
		t.Error("nil state: want error")
	}
	if _, err := prof.Analyze(obs.New().State(), prof.Options{}); err == nil {
		t.Error("empty state: want error")
	}
}

// TestCriticalPathEqualsFinishRing is the acceptance criterion: the
// extracted critical path fully accounts for the finish cycle —
// compute + link-transit + barrier-wait == finish, exactly — and the
// path is contiguous from cycle 0.
func TestCriticalPathEqualsFinishRing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		finish, st := runRing(t, workers)
		rep, err := prof.Analyze(st, prof.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FinishCycle != finish {
			t.Fatalf("workers=%d: report finish %d != run finish %d", workers, rep.FinishCycle, finish)
		}
		if got := pathTotal(rep); got != finish {
			t.Errorf("workers=%d: critical path %d != finish %d", workers, got, finish)
		}
		// Segments tile [0, finish) with no gaps or overlaps.
		var at int64
		for i, seg := range rep.Path {
			if seg.Start != at {
				t.Fatalf("segment %d starts at %d, want %d", i, seg.Start, at)
			}
			if seg.End <= seg.Start {
				t.Fatalf("segment %d is empty: %+v", i, seg)
			}
			at = seg.End
		}
		if at != finish {
			t.Errorf("path ends at %d, want %d", at, finish)
		}
		if rep.LinkCycles == 0 {
			t.Error("ring all-reduce critical path crosses no links")
		}
	}
}

func TestCriticalPathEqualsFinishPipeline(t *testing.T) {
	finish, st := runPipeline(t)
	rep, err := prof.Analyze(st, prof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pathTotal(rep); got != finish {
		t.Errorf("critical path %d != finish %d", got, finish)
	}
}

// TestOccupancyAccounts: every chip×unit row satisfies
// busy + stall + idle == finish, rows are sorted, and the busiest-link
// table respects TopLinks.
func TestOccupancyAccounts(t *testing.T) {
	finish, st := runRing(t, 1)
	rep, err := prof.Analyze(st, prof.Options{TopLinks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Occupancy) == 0 {
		t.Fatal("no occupancy rows")
	}
	for _, o := range rep.Occupancy {
		if o.Busy+o.Stall+o.Idle != finish {
			t.Errorf("chip %d %s: busy %d + stall %d + idle %d != finish %d",
				o.Chip, o.Unit, o.Busy, o.Stall, o.Idle, finish)
		}
	}
	for i := 1; i < len(rep.Occupancy); i++ {
		if rep.Occupancy[i].Chip < rep.Occupancy[i-1].Chip {
			t.Fatal("occupancy rows not sorted by chip")
		}
	}
	if len(rep.Links) > 3 {
		t.Errorf("TopLinks=3 but %d links reported", len(rep.Links))
	}
	if rep.TotalLinks < len(rep.Links) {
		t.Errorf("TotalLinks %d < shown %d", rep.TotalLinks, len(rep.Links))
	}
	for i := 1; i < len(rep.Links); i++ {
		if rep.Links[i].Vectors > rep.Links[i-1].Vectors {
			t.Fatal("links not sorted by traffic")
		}
	}
}

// TestRenderDeterministic: analyzing the same state twice renders
// byte-identical reports with every section present.
func TestRenderDeterministic(t *testing.T) {
	_, st := runRing(t, 1)
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		rep, err := prof.Analyze(st, prof.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Render(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same state differ")
	}
	for _, section := range []string{
		"=== profile report ===",
		"-- occupancy (per chip x unit, cycles) --",
		"-- link utilization",
		"-- link traffic heatmap",
		"-- phase breakdown (compute vs c2c bandwidth) --",
		"-- critical path --",
	} {
		if !strings.Contains(a.String(), section) {
			t.Errorf("report missing section %q", section)
		}
	}
}
