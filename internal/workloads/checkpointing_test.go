package workloads

import (
	"reflect"
	"testing"
)

// Checkpointing shortens replay stalls and never lengthens them: tighter
// cadences stall less and availability is monotone in the cadence.
func TestAvailabilityVsMTBFCheckpointed(t *testing.T) {
	cfg := availCfg()
	mtbfs := []float64{1e-5, 1e-4}
	const replayStallUS = 10_000

	base, err := AvailabilityVsMTBF(cfg, mtbfs, 1, 1, replayStallUS, 5, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}

	prev := base
	for _, cadenceUS := range []float64{8_000, 2_000, 500} {
		pts, err := AvailabilityVsMTBF(cfg, mtbfs, 1, 1, replayStallUS, 5,
			Checkpointing{CadenceUS: cadenceUS, RestoreUS: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if pts[i].Faults != base[i].Faults || pts[i].Replays != base[i].Replays {
				t.Errorf("cadence %v: fault schedule changed: %+v vs %+v", cadenceUS, pts[i], base[i])
			}
			if pts[i].AvailableFrac < prev[i].AvailableFrac-1e-9 {
				t.Errorf("cadence %v: availability %v fell below coarser cadence's %v",
					cadenceUS, pts[i].AvailableFrac, prev[i].AvailableFrac)
			}
		}
		if pts[0].AvailableFrac <= base[0].AvailableFrac {
			t.Errorf("cadence %v: availability %v not above uncheckpointed %v",
				cadenceUS, pts[0].AvailableFrac, base[0].AvailableFrac)
		}
		prev = pts
	}

	// Determinism.
	a, err := AvailabilityVsMTBF(cfg, mtbfs, 1, 0.5, replayStallUS, 5,
		Checkpointing{CadenceUS: 2_000, RestoreUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AvailabilityVsMTBF(cfg, mtbfs, 1, 0.5, replayStallUS, 5,
		Checkpointing{CadenceUS: 2_000, RestoreUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("checkpointed sweep is not deterministic")
	}
}

// Failover stalls ignore checkpointing: the remap invalidates snapshots,
// so an all-failover schedule is identical with and without it.
func TestCheckpointingDoesNotShortenFailovers(t *testing.T) {
	cfg := availCfg()
	base, err := AvailabilityVsMTBF(cfg, []float64{2e-6}, 1, 0, 5_000, 13, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := AvailabilityVsMTBF(cfg, []float64{2e-6}, 1, 0, 5_000, 13,
		Checkpointing{CadenceUS: 500, RestoreUS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, ck) {
		t.Errorf("all-failover sweep changed under checkpointing:\n%+v\n%+v", base, ck)
	}
}

func TestCheckpointingValidation(t *testing.T) {
	cfg := availCfg()
	if _, err := AvailabilityVsMTBF(cfg, []float64{1}, 1, 0.5, 1000, 1,
		Checkpointing{CadenceUS: -1}); err == nil {
		t.Error("negative cadence should be rejected")
	}
	if _, err := AvailabilityVsMTBF(cfg, []float64{1}, 1, 0.5, 1000, 1,
		Checkpointing{CadenceUS: 100, RestoreUS: -1}); err == nil {
		t.Error("negative restore cost should be rejected")
	}
	if _, err := AvailabilityVsMTBF(cfg, []float64{1}, 1, 0.5, 1000, 1,
		Checkpointing{CadenceUS: 100, RestoreUS: 2000}); err == nil {
		t.Error("restore cost above the replay stall should be rejected")
	}
}
