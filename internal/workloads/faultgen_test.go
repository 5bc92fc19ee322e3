package workloads

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The checkpointed replay stall never exceeds the cycle-0 stall it
// replaces, at any (cadence, restore, fault-time) triple: the ladder
// falls back to a full replay rather than resume at a loss. Property
// tested over seeded random triples spanning several orders of
// magnitude, plus the exact edges (fault on a barrier, restore equal to
// the full stall, cadence larger than the horizon).
func TestReplayStallNeverExceedsCycleZero(t *testing.T) {
	r := sim.NewRNG(41)
	for i := 0; i < 20_000; i++ {
		replayStallUS := 1 + r.Float64()*99_999 // (1, 100_000)
		ck := Checkpointing{
			CadenceUS: r.Float64() * 50_000,
			RestoreUS: r.Float64() * replayStallUS,
		}
		at := r.Float64() * 1e9
		got := ck.replayStall(at, replayStallUS)
		if got > replayStallUS {
			t.Fatalf("triple (cadence=%g restore=%g at=%g): stall %g exceeds cycle-0 stall %g",
				ck.CadenceUS, ck.RestoreUS, at, got, replayStallUS)
		}
		if got < 0 {
			t.Fatalf("triple (cadence=%g restore=%g at=%g): negative stall %g",
				ck.CadenceUS, ck.RestoreUS, at, got)
		}
		if !ck.enabled() && got != replayStallUS {
			t.Fatalf("disabled checkpointing changed the stall: %g != %g", got, replayStallUS)
		}
	}
	// Exact edges.
	for _, tc := range []struct {
		ck   Checkpointing
		at   float64
		full float64
		want float64
	}{
		{Checkpointing{CadenceUS: 1000, RestoreUS: 100}, 5000, 10_000, 100},     // fault on a barrier
		{Checkpointing{CadenceUS: 1000, RestoreUS: 100}, 5999, 10_000, 1099},    // just before the next
		{Checkpointing{CadenceUS: 1e9, RestoreUS: 100}, 5000, 10_000, 5100},     // cadence past the horizon
		{Checkpointing{CadenceUS: 1e9, RestoreUS: 100}, 50_000, 10_000, 10_000}, // falls back to cycle 0
		{Checkpointing{}, 5000, 10_000, 10_000},                                 // off
	} {
		if got := tc.ck.replayStall(tc.at, tc.full); got != tc.want {
			t.Errorf("replayStall(%g, %g) with %+v = %g, want %g", tc.at, tc.full, tc.ck, got, tc.want)
		}
	}
}

// The zero-value Checkpointing is the cycle-0 sweep byte for byte: it
// matches checkpointing whose restore costs the whole replay, so every
// resume falls back to cycle 0. Identical JSON encodings, not merely
// DeepEqual values.
func TestZeroValueCheckpointingByteForByte(t *testing.T) {
	cfg := availCfg()
	mtbfs := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	base, err := AvailabilityVsMTBF(cfg, mtbfs, 2, 0.6, 10_000, 17, Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := AvailabilityVsMTBF(cfg, mtbfs, 2, 0.6, 10_000, 17, Checkpointing{CadenceUS: 2_000, RestoreUS: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bj, cj) {
		t.Fatalf("zero-value Checkpointing diverged byte-wise:\n%s\n%s", bj, cj)
	}
}

// Draw is deterministic and Fork-order independent: the same profile and
// seed give the same schedule no matter how many sibling streams forked
// first, and the tally matches the events.
func TestFaultProfileDrawDeterministic(t *testing.T) {
	p := FaultProfile{MTBFHours: 1e-4, Spares: 1, ReplayFrac: 0.7, ReplayStallUS: 10_000,
		Checkpoint: Checkpointing{CadenceUS: 2000, RestoreUS: 100}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const horizonUS = 4.4e6
	root := sim.NewRNG(5)
	a, ta := p.Draw(root.Fork(3), horizonUS)
	// Fork other ids first — the parent stream must not advance.
	root.Fork(0)
	root.Fork(99)
	b, tb := p.Draw(root.Fork(3), horizonUS)
	if !reflect.DeepEqual(a, b) || ta != tb {
		t.Fatal("Draw is not Fork-order independent")
	}
	if ta.Faults == 0 {
		t.Fatal("no faults drawn; horizon or MTBF miscalibrated for the test")
	}
	if ta.Faults != ta.Replays+ta.Failovers {
		t.Errorf("tally inconsistent: %+v", ta)
	}
	replays, failovers, losses := 0, 0, 0
	for _, ev := range a {
		switch ev.Kind {
		case KindReplay:
			replays++
			if ev.ReplayUS > p.ReplayStallUS {
				t.Errorf("replay stall %g exceeds cycle-0 stall %g", ev.ReplayUS, p.ReplayStallUS)
			}
		case KindFailover:
			failovers++
		case KindCapacityLoss:
			losses++
			if ev.CapacityFrac >= 1 || ev.CapacityFrac < 0.1 {
				t.Errorf("capacity loss with CapacityFrac %g", ev.CapacityFrac)
			}
		}
	}
	if replays != ta.Replays || failovers+losses != ta.Failovers || losses != ta.CapacityLosses {
		t.Errorf("event kinds disagree with tally: %d/%d/%d vs %+v", replays, failovers, losses, ta)
	}
}

func TestFaultProfileValidate(t *testing.T) {
	good := FaultProfile{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []FaultProfile{
		{MTBFHours: 0, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 100},
		{MTBFHours: 1, Spares: -1, ReplayFrac: 0.5, ReplayStallUS: 100},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 1.5, ReplayStallUS: 100},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 0},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 100,
			Checkpoint: Checkpointing{CadenceUS: 10, RestoreUS: 200}},
		{MTBFHours: 1, Spares: 1, ReplayFrac: math.NaN(), ReplayStallUS: 100},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: math.NaN()},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: math.Inf(1)},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 100,
			Checkpoint: Checkpointing{CadenceUS: math.NaN(), RestoreUS: 10}},
		{MTBFHours: 1, Spares: 1, ReplayFrac: 0.5, ReplayStallUS: 100,
			Checkpoint: Checkpointing{CadenceUS: 10, RestoreUS: math.NaN()}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %+v should be rejected", p)
		}
	}
}
