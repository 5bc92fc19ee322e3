package runtime

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

func node8(t *testing.T) *topo.System {
	t.Helper()
	s, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// linkIndex returns chip `from`'s port on its first link to `to`.
func linkIndex(t *testing.T, sys *topo.System, from, to topo.TSPID) int {
	t.Helper()
	port, ok := sys.PortTo(from, to)
	if !ok {
		t.Fatalf("no link %d→%d", from, to)
	}
	return port
}

func asm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTwoChipSendRecv(t *testing.T) {
	sys := node8(t)
	l01 := linkIndex(t, sys, 0, 1)
	l10 := linkIndex(t, sys, 1, 0)

	progs := make([]*isa.Program, 8)
	// Chip 0 sends stream 1; chip 1 receives it after the hop latency
	// (the compiler padded the schedule with a NOP of exactly HopCycles).
	progs[0] = asm(t, "send "+itoa(l01)+" s1")
	progs[1] = asm(t, ".unit c2c\nnop 650\nrecv "+itoa(l10)+" s2")

	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Chip(0).SetStream(1, tsp.VectorOf([]float32{7, 8, 9}))
	finish, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := cl.Chip(1).StreamFloats(2)
	if got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("received %v", got[:3])
	}
	if finish < route.HopCycles {
		t.Fatalf("finish = %d, too early", finish)
	}
}

func itoa(i int) string {
	if i < 0 {
		panic("negative")
	}
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestRecvBeforeSendUnderflows(t *testing.T) {
	sys := node8(t)
	l10 := linkIndex(t, sys, 1, 0)
	progs := make([]*isa.Program, 8)
	// Chip 1 recvs at cycle 0 but nobody ever sends: a schedule bug the
	// fabric must surface, not absorb.
	progs[1] = asm(t, "recv "+itoa(l10)+" s2")
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Run()
	f, ok := err.(*tsp.Fault)
	if !ok || f.Kind != tsp.ErrUnderflow {
		t.Fatalf("want underflow fault, got %v", err)
	}
}

func TestLockstepOrderingAllowsLateSender(t *testing.T) {
	// Chip 1's recv is scheduled at cycle 2000; chip 0 sends at cycle
	// 1000. Global time ordering must run the send first even though
	// chip 1's program was built first.
	sys := node8(t)
	l01 := linkIndex(t, sys, 0, 1)
	l10 := linkIndex(t, sys, 1, 0)
	progs := make([]*isa.Program, 8)
	progs[0] = asm(t, ".unit c2c\nnop 1000\nsend "+itoa(l01)+" s1")
	progs[1] = asm(t, ".unit c2c\nnop 2000\nrecv "+itoa(l10)+" s3")
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Chip(0).SetStream(1, tsp.VectorOf([]float32{5}))
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Chip(1).StreamFloats(3)[0] != 5 {
		t.Fatal("late-scheduled recv missed the data")
	}
}

// TestDistributedVectorSum is an end-to-end functional test: chips 1..3
// each send a vector to chip 0, which accumulates them — numerically
// correct data through the full runtime+fabric+chip stack.
func TestDistributedVectorSum(t *testing.T) {
	sys := node8(t)
	progs := make([]*isa.Program, 8)
	for src := 1; src <= 3; src++ {
		li := linkIndex(t, sys, topo.TSPID(src), 0)
		progs[src] = asm(t, "send "+itoa(li)+" s1")
	}
	// Chip 0: recv three vectors (each on its own link), add them.
	r1 := linkIndex(t, sys, 0, 1)
	r2 := linkIndex(t, sys, 0, 2)
	r3 := linkIndex(t, sys, 0, 3)
	progs[0] = asm(t, `
.unit c2c
nop 650
recv `+itoa(r1)+` s1
recv `+itoa(r2)+` s2
recv `+itoa(r3)+` s3
.unit vxm
nop 700
vadd s1 s2 s4
vadd s4 s3 s5
`)
	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	for src := 1; src <= 3; src++ {
		cl.Chip(src).SetStream(1, tsp.VectorOf([]float32{float32(src), float32(src * 10)}))
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	sum := cl.Chip(0).StreamFloats(5)
	if sum[0] != 6 || sum[1] != 60 {
		t.Fatalf("distributed sum = %v, want [6 60]", sum[:2])
	}
}

func TestRunDeterministic(t *testing.T) {
	build := func() *Cluster {
		sys := node8(t)
		progs := make([]*isa.Program, 8)
		l01 := linkIndex(t, sys, 0, 1)
		l10 := linkIndex(t, sys, 1, 0)
		progs[0] = asm(t, "send "+itoa(l01)+" s1\nnop 100")
		progs[1] = asm(t, ".unit c2c\nnop 650\nrecv "+itoa(l10)+" s2\nnop 5")
		cl, err := New(sys, progs)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	f1, e1 := build().Run()
	f2, e2 := build().Run()
	if e1 != nil || e2 != nil || f1 != f2 {
		t.Fatalf("non-deterministic runs: %d/%v vs %d/%v", f1, e1, f2, e2)
	}
}

func TestTooManyProgramsRejected(t *testing.T) {
	sys := node8(t)
	if _, err := New(sys, make([]*isa.Program, 9)); err == nil {
		t.Fatal("9 programs on 8 TSPs should fail")
	}
}

// TestReplayOnMemoryFault reproduces §4.5's software-replay path: the
// first attempt hits a detected-uncorrectable memory error; the replay on
// clean state succeeds.
func TestReplayOnMemoryFault(t *testing.T) {
	sys := node8(t)
	finish, attempts, err := RunWithReplay(nil, func(attempt int) (*Cluster, error) {
		progs := make([]*isa.Program, 8)
		progs[0] = asm(t, "read 0 0 0 s1\nvcopy s1 s2")
		cl, err := New(sys, progs)
		if err != nil {
			return nil, err
		}
		addr := mem.Addr{}
		cl.Chip(0).Mem.Write(addr, make([]byte, mem.VectorBytes))
		if attempt == 1 {
			// Transient double-bit upset on the first attempt.
			cl.Chip(0).Mem.FlipBit(addr, 10)
			cl.Chip(0).Mem.FlipBit(addr, 11)
		}
		return cl, nil
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if finish <= 0 {
		t.Fatal("no work done")
	}
}

func TestReplayBudgetExhausted(t *testing.T) {
	sys := node8(t)
	_, attempts, err := RunWithReplay(nil, func(int) (*Cluster, error) {
		progs := make([]*isa.Program, 8)
		progs[0] = asm(t, "read 0 0 0 s1")
		cl, cerr := New(sys, progs)
		if cerr != nil {
			return nil, cerr
		}
		cl.Chip(0).Mem.Write(mem.Addr{}, make([]byte, mem.VectorBytes))
		cl.Chip(0).Mem.FlipBit(mem.Addr{}, 1)
		cl.Chip(0).Mem.FlipBit(mem.Addr{}, 2)
		return cl, nil
	}, 2)
	if err == nil {
		t.Fatal("persistent fault should exhaust the replay budget")
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d", attempts)
	}
	if !strings.Contains(err.Error(), "replay budget") {
		t.Fatalf("error %q", err)
	}
}

func TestAllocationSpare(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 9})
	if err != nil {
		t.Fatal(err)
	}
	// 9 nodes, 1 spare: 64 usable TSPs. Paper: 1/9 ≈ 11% overhead.
	a, err := NewAllocation(sys, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(len(a.spares)) / float64(sys.NumNodes()); got < 0.11 || got > 0.112 {
		t.Fatalf("overhead = %.3f, want ~0.111", got)
	}
	if err := a.VerifyConnected(); err != nil {
		t.Fatal(err)
	}
	// Fail node 2: its 8 devices move to the spare node, same local
	// indices.
	if err := a.FailNode(2, nil); err != nil {
		t.Fatal(err)
	}
	for d := 16; d < 24; d++ {
		tsp := a.TSPOf(d)
		if tsp.Node() != 8 {
			t.Fatalf("device %d on node %d, want spare node 8", d, tsp.Node())
		}
		if tsp.LocalIndex() != d-16 {
			t.Fatal("local index not preserved")
		}
	}
	// Unaffected devices stay put.
	if a.TSPOf(0) != 0 || a.TSPOf(63) != 63 {
		t.Fatal("unaffected devices moved")
	}
	// The remapped program remains fully routable around the dead node.
	if err := a.VerifyConnected(); err != nil {
		t.Fatal(err)
	}
	if !a.failed[topo.TSPID(17).Node()] {
		t.Fatal("TSP on failed node reported healthy")
	}
}

func TestAllocationFailureModes(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAllocation(sys, 17); err == nil {
		t.Fatal("over-subscription should fail")
	}
	a, err := NewAllocation(sys, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailNode(a.spares[0], nil); err == nil {
		t.Fatal("failing the spare should error")
	}
	if err := a.FailNode(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.FailNode(0, nil); err == nil {
		t.Fatal("double failure should error")
	}
	if err := a.FailNode(1, nil); err == nil {
		t.Fatal("second node failure with no spare should error")
	}
	single, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAllocation(single, 4); err == nil {
		t.Fatal("single node cannot spare")
	}
}

func TestReducedOverheadLargerSystem(t *testing.T) {
	// §4.5: a 33-node system sparing one node drops overhead to ~3%.
	sys, err := topo.New(topo.Config{Nodes: 33})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAllocation(sys, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(len(a.spares)) / float64(sys.NumNodes()); got > 0.031 {
		t.Fatalf("overhead = %.3f, want ~0.03", got)
	}
}
