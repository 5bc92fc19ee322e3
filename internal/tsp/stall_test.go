package tsp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestStallAccountingSyncNotify: a unit parked on SYNC accrues wait
// cycles from its park point to the NOTIFY wake, attributed to the
// waiter; the notifying unit accrues none.
func TestStallAccountingSyncNotify(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.VAdd, A: 1, B: 2, C: 3})
	prog.AppendTo(isa.MXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 100})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Notify})

	rec := obs.New()
	chip := New(0, prog, nil)
	chip.AttachRecorder(rec)
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}

	// Both parked units wake at NOTIFY-issue + NotifyLatency; each one's
	// stall is wake minus its park cursor (SYNC retire).
	syncAdv := isa.Latency(isa.Instruction{Op: isa.Sync})
	wake := int64(100) + NotifyLatency
	want := wake - syncAdv
	stalls := chip.stall
	if stalls[isa.VXM] != want || stalls[isa.MXM] != want {
		t.Errorf("stalls VXM=%d MXM=%d, want %d each", stalls[isa.VXM], stalls[isa.MXM], want)
	}
	if stalls[isa.ICU] != 0 {
		t.Errorf("notifier accrued %d stall cycles, want 0", stalls[isa.ICU])
	}

	// The counters mirror the accumulator exactly.
	st := rec.State()
	for _, u := range []isa.Unit{isa.VXM, isa.MXM} {
		key := "tsp.stall_cycles{chip=0,unit=" + u.String() + "}"
		if got := st.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
}

// TestStallAccountingDeskew: DESKEW's pause to the next epoch boundary is
// alignment stall.
func TestStallAccountingDeskew(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 100})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Deskew})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 1})
	chip := New(0, prog, nil)
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	adv := isa.Latency(isa.Instruction{Op: isa.Deskew})
	want := EpochCycles - (100 + adv)
	if got := chip.stall[isa.ICU]; got != want {
		t.Errorf("deskew stall = %d, want %d", got, want)
	}
}

// TestStallSurvivesStateRoundTrip: Stall checkpoints and restores with the
// rest of the unit state, so occupancy reports stay exact across a resume.
func TestStallSurvivesStateRoundTrip(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 20})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Notify})
	chip := New(0, prog, nil)
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	want := chip.stall
	if want[isa.VXM] == 0 {
		t.Fatal("workload produced no stall")
	}

	restored := New(0, prog, nil)
	restored.SetState(captured(chip))
	if got := restored.stall; got != want {
		t.Errorf("restored stalls = %v, want %v", got, want)
	}
}
