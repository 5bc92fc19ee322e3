package tsp

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// loopback is a single-chip C2C stub: sends land in a per-link mailbox with
// a fixed latency and Recv consumes them FIFO.
type loopback struct {
	latency int64
	boxes   [MaxLinks][]struct {
		v       Vector
		arrival int64
	}
	transmits []int64
}

func (l *loopback) Send(link int, v *Vector, cycle int64) {
	l.boxes[link] = append(l.boxes[link], struct {
		v       Vector
		arrival int64
	}{*v, cycle + l.latency})
}

func (l *loopback) Recv(link int, cycle int64, dst *Vector) bool {
	if len(l.boxes[link]) == 0 || l.boxes[link][0].arrival > cycle {
		return false
	}
	*dst = l.boxes[link][0].v
	l.boxes[link] = l.boxes[link][1:]
	return true
}

func (l *loopback) Transmit(link int, cycle int64) {
	l.transmits = append(l.transmits, cycle)
}

func run(t *testing.T, src string, c2c C2C) *Chip {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := New(0, prog, c2c)
	if _, f := chip.Run(); f != nil {
		t.Fatalf("fault: %v", f)
	}
	return chip
}

func TestVectorFloatCodec(t *testing.T) {
	var lanes [FloatLanes]float32
	for i := range lanes {
		lanes[i] = float32(i) * 1.5
	}
	v := VectorOf(lanes[:])
	got := v.Floats()
	for i := range lanes {
		if got[i] != lanes[i] {
			t.Fatalf("lane %d: %f != %f", i, got[i], lanes[i])
		}
	}
}

func TestVectorOfPartial(t *testing.T) {
	v := VectorOf([]float32{1, 2, 3})
	f := v.Floats()
	if f[0] != 1 || f[1] != 2 || f[2] != 3 || f[3] != 0 {
		t.Fatal("VectorOf padding wrong")
	}
}

func TestMemoryRoundTripThroughStreams(t *testing.T) {
	chip := run(t, `
read 5 1 100 s1
vcopy s1 s2
write 6 0 200 s2
`, nil)
	// Unwritten memory reads zero; the write stores zeros — check the
	// instruction path executed by writing real data first.
	want := VectorOf([]float32{3.25, -7})
	chip2 := New(0, mustProg(t, `
read 5 1 100 s1
write 6 0 200 s1
`), nil)
	chip2.Mem.Write(memAddr(isa.Instruction{A: 5, B: 1, C: 100}), want[:])
	if _, f := chip2.Run(); f != nil {
		t.Fatal(f)
	}
	got, ok := chip2.Mem.Read(memAddr(isa.Instruction{A: 6, B: 0, C: 200}))
	if !ok {
		t.Fatal("poisoned")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	_ = chip
}

func mustProg(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVectorALU(t *testing.T) {
	chip := New(0, mustProg(t, `
vadd s1 s2 s3
vsub s1 s2 s4
vmul s1 s2 s5
vrsqrt s6 s7
vsplat s1 2 s8
`), nil)
	chip.SetStream(1, VectorOf([]float32{1, 2, 3, 4}))
	chip.SetStream(2, VectorOf([]float32{10, 20, 30, 40}))
	chip.SetStream(6, VectorOf([]float32{4, 16, 0, -9}))
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	add := chip.StreamFloats(3)
	if add[0] != 11 || add[3] != 44 {
		t.Fatalf("vadd wrong: %v", add[:4])
	}
	sub := chip.StreamFloats(4)
	if sub[1] != -18 {
		t.Fatalf("vsub wrong: %v", sub[:4])
	}
	mul := chip.StreamFloats(5)
	if mul[2] != 90 {
		t.Fatalf("vmul wrong: %v", mul[:4])
	}
	rs := chip.StreamFloats(7)
	if math.Abs(float64(rs[0])-0.5) > 1e-6 || math.Abs(float64(rs[1])-0.25) > 1e-6 {
		t.Fatalf("vrsqrt wrong: %v", rs[:4])
	}
	if rs[2] != 0 || rs[3] != 0 {
		t.Fatal("vrsqrt of non-positive lanes should be 0")
	}
	sp := chip.StreamFloats(8)
	if sp[0] != 3 || sp[79] != 3 {
		t.Fatalf("vsplat wrong: %v", sp[:4])
	}
}

func TestMatMulFunctional(t *testing.T) {
	// W is 3x80 with known rows; activation [1x3]; out = act·W.
	chip := New(0, mustProg(t, `
load_weights s1 0
load_weights s2 1
load_weights s3 2
matmul s4 s10 3
`), nil)
	chip.SetStream(1, VectorOf([]float32{1, 0, 2})) // W[0] = [1,0,2,...]
	chip.SetStream(2, VectorOf([]float32{0, 1, 0}))
	chip.SetStream(3, VectorOf([]float32{5, 5, 5}))
	chip.SetStream(4, VectorOf([]float32{2, 3, 4})) // activation
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	out := chip.StreamFloats(10)
	// out[0] = 2*1 + 3*0 + 4*5 = 22; out[1] = 2*0+3*1+4*5 = 23;
	// out[2] = 2*2+3*0+4*5 = 24.
	if out[0] != 22 || out[1] != 23 || out[2] != 24 {
		t.Fatalf("matmul = %v, want [22 23 24]", out[:3])
	}
}

func TestMatMulLatencyScalesWithRows(t *testing.T) {
	short := New(0, mustProg(t, "matmul s1 s2 10"), nil)
	long := New(0, mustProg(t, "matmul s1 s2 160"), nil)
	shortEnd, _ := short.Run()
	longEnd, _ := long.Run()
	if longEnd-shortEnd != 150 {
		t.Fatalf("row scaling: %d vs %d", shortEnd, longEnd)
	}
}

func TestDeterministicTiming(t *testing.T) {
	src := `
read 0 0 0 s1
vadd s1 s1 s2
matmul s2 s3 160
write 0 0 1 s3
nop 7
halt
`
	c1 := run(t, src, nil)
	c2 := run(t, src, nil)
	if c1.FinishCycle() != c2.FinishCycle() {
		t.Fatal("identical programs must finish on the identical cycle")
	}
	if c1.FinishCycle() == 0 {
		t.Fatal("no time elapsed?")
	}
}

func TestSyncNotifyBarrier(t *testing.T) {
	// VXM and MXM park; ICU NOTIFYs after padding; both resume at the
	// same cycle (notify latency after the NOTIFY issue).
	prog := &isa.Program{}
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.VAdd, A: 1, B: 2, C: 3})
	prog.AppendTo(isa.MXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.MXM, isa.Instruction{Op: isa.MatMul, A: 1, B: 4, Imm: 1})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Nop, Imm: 100})
	prog.AppendTo(isa.ICU, isa.Instruction{Op: isa.Notify})
	chip := New(0, prog, nil)
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	// NOTIFY issues at cycle 100; parked units resume at 104; VADD takes
	// 2 → VXM cursor 106; MatMul 1 row → 105.
	if chip.cursor[isa.VXM] != 100+NotifyLatency+2 {
		t.Fatalf("VXM resumed at wrong time: cursor %d", chip.cursor[isa.VXM])
	}
	if chip.cursor[isa.MXM] != 100+NotifyLatency+1 {
		t.Fatalf("MXM resumed at wrong time: cursor %d", chip.cursor[isa.MXM])
	}
}

func TestDeadlockDetected(t *testing.T) {
	prog := &isa.Program{}
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.Sync})
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.VAdd})
	chip := New(0, prog, nil)
	_, f := chip.Run()
	if f == nil || f.Kind != ErrDeadlock {
		t.Fatalf("want deadlock fault, got %v", f)
	}
}

func TestDeskewAlignsToEpoch(t *testing.T) {
	chip := run(t, `
nop 100
deskew
nop 1
`, nil)
	// After deskew the next instruction issues at an epoch boundary.
	// nop 100 ends at 100, deskew pauses until 252, nop 1 → 253.
	if chip.FinishCycle() != EpochCycles+1 {
		t.Fatalf("finish = %d, want %d", chip.FinishCycle(), EpochCycles+1)
	}
	// Deskew at an exact boundary still waits for the *next* boundary
	// (its own 1-cycle issue pushes past it).
	chip2 := run(t, `
nop 252
deskew
nop 1
`, nil)
	if chip2.FinishCycle() != 2*EpochCycles+1 {
		t.Fatalf("boundary deskew finish = %d, want %d", chip2.FinishCycle(), 2*EpochCycles+1)
	}
}

func TestRuntimeDeskewUsesDelta(t *testing.T) {
	prog := mustProg(t, `
runtime_deskew 200
nop 1
`)
	fast := New(0, prog, nil)
	fast.SetDeskewDelta(func(int64) int64 { return +10 })
	fastEnd, _ := fast.Run()
	slow := New(1, mustProg(t, "runtime_deskew 200\nnop 1"), nil)
	slow.SetDeskewDelta(func(int64) int64 { return -10 })
	slowEnd, _ := slow.Run()
	if fastEnd != 211 || slowEnd != 191 {
		t.Fatalf("deskew stalls: fast %d (want 211), slow %d (want 191)", fastEnd, slowEnd)
	}
}

func TestSendRecvThroughC2C(t *testing.T) {
	lb := &loopback{latency: 650}
	prog := mustProg(t, `
.unit c2c
send 3 s1
nop 649
recv 3 s2
`)
	chip := New(0, prog, lb)
	chip.SetStream(1, VectorOf([]float32{42}))
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	if got := chip.StreamFloats(2)[0]; got != 42 {
		t.Fatalf("recv data = %f, want 42", got)
	}
}

func TestRecvUnderflowFaults(t *testing.T) {
	lb := &loopback{latency: 650}
	prog := mustProg(t, `
.unit c2c
send 3 s1
recv 3 s2
`)
	chip := New(0, prog, lb)
	_, f := chip.Run()
	if f == nil || f.Kind != ErrUnderflow {
		t.Fatalf("want underflow fault, got %v", f)
	}
}

func TestTransmitHook(t *testing.T) {
	lb := &loopback{}
	chip := New(0, mustProg(t, `
.unit c2c
nop 10
transmit 2
`), lb)
	if _, f := chip.Run(); f != nil {
		t.Fatal(f)
	}
	if len(lb.transmits) != 1 || lb.transmits[0] != 10 {
		t.Fatalf("transmit hook = %v", lb.transmits)
	}
}

func TestMemPoisonFault(t *testing.T) {
	prog := mustProg(t, "read 0 0 0 s1")
	chip := New(0, prog, nil)
	addr := memAddr(isa.Instruction{A: 0, B: 0, C: 0})
	chip.Mem.Write(addr, make([]byte, VectorBytes))
	chip.Mem.FlipBit(addr, 3)
	chip.Mem.FlipBit(addr, 4)
	_, f := chip.Run()
	if f == nil || f.Kind != ErrMemPoison {
		t.Fatalf("want memory-poison fault, got %v", f)
	}
}

func TestUnitsAdvanceIndependently(t *testing.T) {
	// Two units with different-length streams: finish cycle is the max.
	prog := &isa.Program{}
	prog.AppendTo(isa.VXM, isa.Instruction{Op: isa.Nop, Imm: 10})
	prog.AppendTo(isa.MXM, isa.Instruction{Op: isa.Nop, Imm: 500})
	chip := New(0, prog, nil)
	end, f := chip.Run()
	if f != nil {
		t.Fatal(f)
	}
	if end != 500 {
		t.Fatalf("finish = %d, want 500", end)
	}
}

func TestErrorKindStrings(t *testing.T) {
	for _, k := range []ErrorKind{ErrNone, ErrUnderflow, ErrDeadlock, ErrMemPoison} {
		if k.String() == "unknown" {
			t.Fatal("missing string")
		}
	}
	if ErrorKind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Kind: ErrUnderflow, Unit: isa.C2C, Cycle: 123}
	if f.Error() == "" {
		t.Fatal("empty error")
	}
}
