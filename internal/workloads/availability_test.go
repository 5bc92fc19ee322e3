package workloads

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/serve"
)

func availCfg() serve.Config {
	return serve.Config{
		ServiceUS:         100,
		PipelineDepth:     4,
		ArrivalRatePerSec: 5000,
		Requests:          3000,
		Seed:              21,
	}
}

// Rarer faults must never hurt availability, and the sweep itself must be
// seed-deterministic.
func TestAvailabilityVsMTBFMonotone(t *testing.T) {
	// MTBFs chosen so the 0.66 s horizon sees many → few → zero faults.
	mtbfs := []float64{1e-5, 1e-4, 1e-2}
	pts, err := AvailabilityVsMTBF(availCfg(), mtbfs, 1, 0.5, 10_000, 5, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(mtbfs) {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Faults == 0 {
		t.Fatal("shortest MTBF produced no faults; test horizon mis-sized")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Faults > pts[i-1].Faults {
			t.Errorf("faults should fall with MTBF: %+v", pts)
		}
		if pts[i].AvailableFrac < pts[i-1].AvailableFrac-1e-9 {
			t.Errorf("availability should rise with MTBF: %v then %v",
				pts[i-1].AvailableFrac, pts[i].AvailableFrac)
		}
	}
	if last := pts[len(pts)-1]; last.Faults != 0 || last.AvailableFrac != 1 {
		t.Errorf("longest MTBF should be fault-free: %+v", last)
	}
	// Fault bookkeeping is consistent.
	for _, p := range pts {
		if p.Replays+p.Failovers != p.Faults {
			t.Errorf("replays+failovers != faults: %+v", p)
		}
	}

	again, err := AvailabilityVsMTBF(availCfg(), mtbfs, 1, 0.5, 10_000, 5, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Error("sweep is not deterministic")
	}
}

// Exhausting the spares must shed capacity and mark requests degraded.
func TestAvailabilityVsMTBFSpareExhaustion(t *testing.T) {
	// All faults are failovers (replayFrac 0) at a fault-every-7ms pace:
	// far more node losses than the single spare can absorb.
	pts, err := AvailabilityVsMTBF(availCfg(), []float64{2e-6}, 1, 0, 5_000, 13, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.Failovers <= 1 {
		t.Fatalf("expected many failovers, got %+v", p)
	}
	if p.SparesLeft != 0 {
		t.Errorf("spare should be consumed: %+v", p)
	}
	if p.DegradedFrac == 0 {
		t.Errorf("post-exhaustion faults should degrade serving: %+v", p)
	}
	if p.AvailableFrac >= 1 {
		t.Errorf("availability should suffer: %+v", p)
	}
}

func TestAvailabilityVsMTBFValidation(t *testing.T) {
	if _, err := AvailabilityVsMTBF(availCfg(), []float64{-1}, 1, 0.5, 1000, 1, Checkpointing{}); err == nil {
		t.Error("negative MTBF should be rejected")
	}
	if _, err := AvailabilityVsMTBF(availCfg(), []float64{1}, -1, 0.5, 1000, 1, Checkpointing{}); err == nil {
		t.Error("negative spares should be rejected")
	}
	if _, err := AvailabilityVsMTBF(availCfg(), []float64{1}, 1, 1.5, 1000, 1, Checkpointing{}); err == nil {
		t.Error("replayFrac > 1 should be rejected")
	}
	// A NaN MTBF never lets a drawn fault pass the horizon, so an
	// unchecked draw appends events forever. On timeout the test panics
	// rather than fails, so the runaway draw cannot exhaust memory while
	// the remaining tests run.
	done := make(chan error, 1)
	go func() {
		_, err := AvailabilityVsMTBF(availCfg(), []float64{math.NaN()}, 1, 0.5, 1000, 1, Checkpointing{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("NaN MTBF should be rejected")
		}
	case <-time.After(time.Second):
		panic("AvailabilityVsMTBF with a NaN MTBF did not return within 1s")
	}
}
