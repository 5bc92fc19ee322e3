package serve

import (
	"math"
	"testing"
)

// A recovery stall mid-stream must push the replay tail into the latency
// percentiles, and a capacity loss must slow everything after it.
func TestRunDegradedFaultVisibleInTail(t *testing.T) {
	cfg := Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000, // 50% load
		Requests:          2000,
		Seed:              9,
	}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One incident: a 20 ms replay stall a quarter into the run, full
	// capacity afterwards (clean failover onto a spare).
	faulty, err := RunDegraded(cfg, []Incident{{StartUS: 100_000, ReplayUS: 20_000, CapacityFrac: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.ReplayedRequests == 0 {
		t.Fatal("no requests saw the recovery stall")
	}
	if faulty.DegradedRequests != 0 {
		t.Errorf("full-capacity failover should not degrade requests, got %d", faulty.DegradedRequests)
	}
	if faulty.MaxUS < clean.MaxUS+19_000 {
		t.Errorf("replay tail missing: max %.0fµs vs clean %.0fµs", faulty.MaxUS, clean.MaxUS)
	}
	if faulty.P50US < clean.P50US {
		t.Errorf("median should not improve under a fault: %.0f vs %.0f", faulty.P50US, clean.P50US)
	}
	if faulty.AvailableFrac >= 1 || faulty.AvailableFrac <= 0 {
		t.Errorf("AvailableFrac = %v", faulty.AvailableFrac)
	}

	// Same stall, but the spares were exhausted: half capacity afterwards.
	degraded, err := RunDegraded(cfg, []Incident{{StartUS: 100_000, ReplayUS: 20_000, CapacityFrac: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.DegradedRequests == 0 {
		t.Fatal("no requests marked degraded at half capacity")
	}
	if degraded.P99US <= faulty.P99US {
		t.Errorf("half capacity should worsen the tail: p99 %.0f vs %.0f", degraded.P99US, faulty.P99US)
	}
}

// RunDegraded with no incidents must be exactly Run.
func TestRunDegradedNoIncidentsMatchesRun(t *testing.T) {
	cfg := Config{ServiceUS: 100, PipelineDepth: 4, ArrivalRatePerSec: 7000, Requests: 500, Seed: 3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDegraded(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b.Result {
		t.Fatalf("results differ: %+v vs %+v", a, b.Result)
	}
	if b.ReplayedRequests != 0 || b.DegradedRequests != 0 || b.AvailableFrac != 1 {
		t.Fatalf("clean run has recovery footprint: %+v", b)
	}
}

// The incident engine is deterministic: identical configs and schedules
// give identical results.
func TestRunDegradedDeterministic(t *testing.T) {
	cfg := Config{ServiceUS: 100, PipelineDepth: 4, ArrivalRatePerSec: 8000, Requests: 1000, Seed: 11}
	incs := []Incident{
		{StartUS: 30_000, ReplayUS: 5_000, CapacityFrac: 1},
		{StartUS: 70_000, ReplayUS: 8_000, CapacityFrac: 0.75},
	}
	a, err := RunDegraded(cfg, incs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDegraded(cfg, incs)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestRunDegradedValidation(t *testing.T) {
	cfg := Config{ServiceUS: 100, PipelineDepth: 4, ArrivalRatePerSec: 8000, Requests: 10, Seed: 1}
	if _, err := RunDegraded(cfg, []Incident{{StartUS: 0, ReplayUS: -1, CapacityFrac: 1}}); err == nil {
		t.Error("negative ReplayUS should be rejected")
	}
	if _, err := RunDegraded(cfg, []Incident{{StartUS: 0, CapacityFrac: 2}}); err == nil {
		t.Error("CapacityFrac > 1 should be rejected")
	}
	// Non-finite inputs must fail rather than yield a plausible result: a
	// NaN incident sorted ahead of a real stall would swallow the stall,
	// and a NaN service time or arrival rate would give NaN percentiles
	// and infinite throughput.
	stall := Incident{StartUS: 100_000, ReplayUS: 50_000, CapacityFrac: 1}
	for _, start := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		incs := []Incident{{StartUS: start, ReplayUS: 10, CapacityFrac: 1}, stall}
		if res, err := RunDegraded(cfg, incs); err == nil {
			t.Errorf("StartUS %g accepted: %+v", start, res)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		c := cfg
		c.ServiceUS = bad
		if res, err := RunDegraded(c, nil); err == nil {
			t.Errorf("ServiceUS %g accepted: %+v", bad, res)
		}
		c = cfg
		c.ArrivalRatePerSec = bad
		if res, err := RunDegraded(c, nil); err == nil {
			t.Errorf("ArrivalRatePerSec %g accepted: %+v", bad, res)
		}
	}
}

// Overlapping recovery stalls must merge before they are subtracted from
// wall time: two faults whose windows overlap cost the union, so a dense
// burst of incidents can never push AvailableFrac below zero (the old
// accounting summed every ReplayUS unconditionally).
func TestRunDegradedOverlappingStallsMerge(t *testing.T) {
	cfg := Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000,
		Requests:          2000,
		Seed:              9,
	}
	// Two 30 ms stalls 10 ms apart: the union is [100ms, 140ms] = 40 ms,
	// not 60 ms. A third incident fully inside the union adds nothing.
	overlapping := []Incident{
		{StartUS: 100_000, ReplayUS: 30_000, CapacityFrac: 1},
		{StartUS: 110_000, ReplayUS: 30_000, CapacityFrac: 1},
		{StartUS: 120_000, ReplayUS: 5_000, CapacityFrac: 1},
	}
	merged, err := RunDegraded(cfg, overlapping)
	if err != nil {
		t.Fatal(err)
	}
	// The same union as one incident: availability must match exactly.
	one, err := RunDegraded(cfg, []Incident{{StartUS: 100_000, ReplayUS: 40_000, CapacityFrac: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if merged.AvailableFrac != one.AvailableFrac {
		t.Errorf("overlapping stalls not merged: AvailableFrac %v vs single-window %v",
			merged.AvailableFrac, one.AvailableFrac)
	}
	if merged.AvailableFrac <= 0 || merged.AvailableFrac >= 1 {
		t.Errorf("AvailableFrac = %v, want in (0, 1)", merged.AvailableFrac)
	}

	// A burst whose summed ReplayUS exceeds the run: the old accounting
	// clamped availability to 0; the merged windows leave most of the run
	// available.
	var burst []Incident
	for i := 0; i < 50; i++ {
		burst = append(burst, Incident{StartUS: 100_000 + float64(i)*100, ReplayUS: 20_000, CapacityFrac: 1})
	}
	br, err := RunDegraded(cfg, burst)
	if err != nil {
		t.Fatal(err)
	}
	// Union is [100ms, 104.9ms+20ms] ≈ 24.9 ms out of a ~400 ms run.
	if br.AvailableFrac < 0.9 {
		t.Errorf("burst of overlapping stalls double-counted: AvailableFrac = %v", br.AvailableFrac)
	}
}

// CapacityFrac == 0 is a total outage, not a no-op: the system serves
// nothing until the next incident restores capacity, and a schedule that
// ends on one is rejected (nothing could ever bring the system back).
func TestRunDegradedTotalOutage(t *testing.T) {
	cfg := Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000,
		Requests:          2000,
		Seed:              9,
	}
	// Outage at 100 ms, recovery (full capacity) at 180 ms: the whole
	// 80 ms gap is stalled even though ReplayUS is only 5 ms.
	outage := []Incident{
		{StartUS: 100_000, ReplayUS: 5_000, CapacityFrac: 0},
		{StartUS: 180_000, ReplayUS: 0, CapacityFrac: 1},
	}
	r, err := RunDegraded(cfg, outage)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent single stall covering [100ms, 180ms].
	eq, err := RunDegraded(cfg, []Incident{{StartUS: 100_000, ReplayUS: 80_000, CapacityFrac: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.AvailableFrac != eq.AvailableFrac {
		t.Errorf("total outage not stalled to the next incident: AvailableFrac %v vs %v",
			r.AvailableFrac, eq.AvailableFrac)
	}
	if r.MaxUS < 75_000 {
		t.Errorf("outage tail missing from latency: max %.0f µs", r.MaxUS)
	}

	// Terminal total outage: rejected, not silently skipped.
	if _, err := RunDegraded(cfg, []Incident{{StartUS: 100_000, ReplayUS: 5_000, CapacityFrac: 0}}); err == nil {
		t.Error("schedule ending on a total outage should be rejected")
	}
}
