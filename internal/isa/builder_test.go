package isa

import (
	"reflect"
	"testing"
)

// TestBuilderPadding checks the two issue contracts: At pads to exactly t
// and panics behind the cursor; After issues at the later of the cursor
// and notBefore and returns the retire cycle. Each gap becomes one NOP,
// and no NOP is emitted when there is no gap.
func TestBuilderPadding(t *testing.T) {
	var b Builder
	b.At(C2C, 10, Instruction{Op: Send, A: 3})
	if got := b.After(VXM, 4, Instruction{Op: VAdd}); got != 6 {
		t.Errorf("After retire = %d, want 6", got)
	}
	if got := b.After(VXM, 0, Instruction{Op: VRsqrt}); got != 12 {
		t.Errorf("After behind the cursor retires at %d, want 12", got)
	}
	b.At(C2C, 11, Instruction{Op: Recv, A: 3})
	if got := b.Cursor(C2C); got != 12 {
		t.Errorf("C2C cursor = %d, want 12", got)
	}
	want := Program{}
	want.Streams[C2C] = []Instruction{{Op: Nop, Imm: 10}, {Op: Send, A: 3}, {Op: Recv, A: 3}}
	want.Streams[VXM] = []Instruction{{Op: Nop, Imm: 4}, {Op: VAdd}, {Op: VRsqrt}}
	if got := b.Program(); !reflect.DeepEqual(*got, want) {
		t.Errorf("program = %+v, want %+v", *got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("At behind the unit's cursor did not panic")
		}
	}()
	b.At(C2C, 11, Instruction{Op: Send})
}
