package tsp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// captureC2C records every Send/Transmit issue cycle in order.
type captureC2C struct {
	cycles []int64
}

func (c *captureC2C) Send(link int, v *Vector, cycle int64) { c.cycles = append(c.cycles, cycle) }
func (c *captureC2C) Transmit(link int, cycle int64)        { c.cycles = append(c.cycles, cycle) }
func (c *captureC2C) Recv(int, int64, *Vector) bool         { return false }

// TestNextSendBoundExactOnDeskewEdge pins the one opcode whose cursor can
// advance less than its latency: RUNTIME_DESKEW with Imm 0 holds the
// cursor, so the Send behind it issues exactly at the bound — any
// higher estimate would be unsound.
func TestNextSendBoundExactOnDeskewEdge(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 100})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.RuntimeDeskew, Imm: 0})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: 0, B: 0})
	cap := &captureC2C{}
	chip := New(0, prog, cap)
	bound, ok := chip.NextSendBound()
	if !ok || bound != 100 {
		t.Fatalf("bound = %d, %v; want 100, true", bound, ok)
	}
	if _, f := chip.Run(); f != nil {
		t.Fatalf("fault: %v", f)
	}
	if len(cap.cycles) != 1 || cap.cycles[0] != 100 {
		t.Fatalf("send cycles = %v, want [100]", cap.cycles)
	}
}

// TestNextSendBoundHaltEndsStream: instructions behind a HALT never
// execute, so a Send after one contributes no bound.
func TestNextSendBoundHaltEndsStream(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 5})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Halt})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send})
	chip := New(0, prog, &captureC2C{})
	if bound, ok := chip.NextSendBound(); ok {
		t.Fatalf("bound = %d, true; want none (send is behind a HALT)", bound)
	}
}

// TestNextSendBoundSendsOnAnyUnit: Send/Transmit may be scheduled on any
// unit stream (AppendTo places freely), so the scan must cover them all.
func TestNextSendBoundSendsOnAnyUnit(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Nop, Imm: 500})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 30})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Transmit})
	chip := New(0, prog, &captureC2C{})
	if bound, ok := chip.NextSendBound(); !ok || bound != 30 {
		t.Fatalf("bound = %d, %v; want 30 (the ICU transmit), true", bound, ok)
	}
}

// TestNextSendBoundProperty is the soundness fuzz: on random multi-unit
// programs, at every execution point the bound must not exceed the cycle
// of any send issued later, and a "no sends remain" answer must be final.
func TestNextSendBoundProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := &isa.Program{}
		units := []isa.Unit{isa.ICU, isa.MEM, isa.VXM, isa.MXM, isa.SXM, isa.C2C}
		for _, u := range units {
			n := rng.Intn(12)
			for k := 0; k < n; k++ {
				switch rng.Intn(8) {
				case 0:
					prog.AppendTo(u, isa.Instruction{Op: isa.Nop, Imm: int32(1 + rng.Intn(40))})
				case 1:
					prog.AppendTo(u, isa.Instruction{Op: isa.MatMul, Imm: int32(1 + rng.Intn(10))})
				case 2:
					prog.AppendTo(u, isa.Instruction{Op: isa.VAdd, A: 1, B: 2, Imm: 3})
				case 3:
					prog.AppendTo(u, isa.Instruction{Op: isa.RuntimeDeskew, Imm: int32(rng.Intn(3))})
				case 4:
					prog.AppendTo(u, isa.Instruction{Op: isa.Write, Imm: 1})
				case 5:
					prog.AppendTo(u, isa.Instruction{Op: isa.Send, A: 0, B: uint16(rng.Intn(4))})
				case 6:
					prog.AppendTo(u, isa.Instruction{Op: isa.Transmit, A: 0})
				case 7:
					if rng.Intn(3) == 0 {
						prog.AppendTo(u, isa.Instruction{Op: isa.Halt})
					} else {
						prog.AppendTo(u, isa.Instruction{Op: isa.Nop, Imm: 2})
					}
				}
			}
		}
		cap := &captureC2C{}
		chip := New(0, prog, cap)
		sawNone := false
		for {
			bound, any := chip.NextSendBound()
			before := len(cap.cycles)
			if !chip.Step() {
				break
			}
			for _, s := range cap.cycles[before:] {
				if sawNone {
					t.Fatalf("seed %d: send at %d after NextSendBound reported none", seed, s)
				}
				if !any {
					t.Fatalf("seed %d: send at %d in a step where NextSendBound reported none", seed, s)
				}
				if s < bound {
					t.Fatalf("seed %d: send at %d violates bound %d (overestimate = unsound window)", seed, s, bound)
				}
			}
			if !any {
				sawNone = true
			}
		}
		if f := chip.Fault(); f != nil {
			t.Fatalf("seed %d: unexpected fault %v", seed, f)
		}
	}
}

// TestSendLinksStaticSet: SendLinks is the sorted, deduplicated set of
// links any Send or Transmit names, on any stream, including ones behind
// a HALT that never execute — a superset is what the component executor
// needs.
func TestSendLinksStaticSet(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: 5})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Recv, A: 1})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Transmit, A: 2})
	prog.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: 5})
	prog.AppendTo(isa.MEM, isa.Instruction{Op: isa.Halt})
	prog.AppendTo(isa.MEM, isa.Instruction{Op: isa.Send, A: 9})
	got := New(0, prog, nil).SendLinks()
	if want := []int{2, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("SendLinks() = %v, want %v", got, want)
	}
	if got := New(0, &isa.Program{}, nil).SendLinks(); len(got) != 0 {
		t.Fatalf("empty program: SendLinks() = %v", got)
	}
}
