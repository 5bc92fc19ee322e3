package isa

import "fmt"

// Builder appends instructions to a program at scheduled issue cycles. It
// tracks each unit's cursor, the cycle at which the unit's stream is next
// free, and fills the gap before an instruction with one NOP: the schedule
// padding that stands in for interlocks in a statically scheduled program.
// The zero value is an empty program with every cursor at cycle 0.
type Builder struct {
	prog   Program
	cursor [NumUnits]int64
}

// At issues in on unit u at exactly cycle t. Scheduling behind the unit's
// cursor is a compiler bug and panics.
func (b *Builder) At(u Unit, t int64, in Instruction) {
	if t < b.cursor[u] {
		panic(fmt.Sprintf("isa: unit %v scheduled at %d behind cursor %d", u, t, b.cursor[u]))
	}
	b.After(u, t, in)
}

// After issues in on unit u at the later of the unit's cursor and
// notBefore, and returns the cycle at which it retires.
func (b *Builder) After(u Unit, notBefore int64, in Instruction) int64 {
	if pad := notBefore - b.cursor[u]; pad > 0 {
		b.prog.AppendTo(u, Instruction{Op: Nop, Imm: int32(pad)})
		b.cursor[u] = notBefore
	}
	b.prog.AppendTo(u, in)
	b.cursor[u] += Latency(in)
	return b.cursor[u]
}

// Cursor returns the cycle at which unit u is next free.
func (b *Builder) Cursor(u Unit) int64 { return b.cursor[u] }

// Program returns the program built so far.
func (b *Builder) Program() *Program {
	p := b.prog
	return &p
}
