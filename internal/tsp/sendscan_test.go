package tsp

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

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
