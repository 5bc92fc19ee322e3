package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/topo"
)

// runRecovered runs f and returns the value it panicked with, or nil.
func runRecovered(f func() (int64, error)) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestRunReraisesComponentPanic: a panic inside a component, here from a
// chip's RUNTIME_DESKEW drift oracle, reaches Run's caller although every
// component runs on a worker goroutine. Chips 0 and 8 each form a
// component, and Run re-raises the lowest panicking component's value at
// every worker count. When both panic at cycle 0 that is also what
// RunSequential raises; when chip 0's oracle fails only at cycle 100000,
// RunSequential's one heap reaches chip 8's panic first, while Run still
// raises chip 0's, because component 0 runs to its own end regardless.
func TestRunReraisesComponentPanic(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(max(2, goruntime.GOMAXPROCS(0))))
	sys, err := topo.New(topo.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// build arms each chip's oracle to fail from cycle from[chip] on.
	build := func(from map[int]int64, workers int) *Cluster {
		progs := make([]*isa.Program, sys.NumTSPs())
		for c, at := range from {
			progs[c] = &isa.Program{}
			if at > 0 {
				progs[c].AppendTo(isa.C2C, isa.Instruction{Op: isa.RuntimeDeskew, Imm: int32(at)})
			}
			progs[c].AppendTo(isa.C2C, isa.Instruction{Op: isa.RuntimeDeskew, Imm: 10})
		}
		cl, err := New(sys, progs)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetWorkers(workers)
		for c, at := range from {
			msg := fmt.Sprintf("chip %d drift oracle failed", c)
			cl.Chip(c).SetDeskewDelta(func(cycle int64) int64 {
				if cycle >= at {
					panic(msg)
				}
				return 0
			})
		}
		return cl
	}
	const chip0, chip8 = "chip 0 drift oracle failed", "chip 8 drift oracle failed"
	for _, tc := range []struct {
		name string
		from map[int]int64
		seq  any
	}{
		{"tie", map[int]int64{0: 0, topo.TSPsPerNode: 0}, chip0},
		{"higher-first", map[int]int64{0: 100000, topo.TSPsPerNode: 0}, chip8},
	} {
		if got := runRecovered(build(tc.from, 1).RunSequential); got != tc.seq {
			t.Fatalf("%s: RunSequential panicked with %v, want %v", tc.name, got, tc.seq)
		}
		for _, w := range []int{1, 2, 4} {
			cl := build(tc.from, w)
			if got := runRecovered(cl.Run); got != chip0 {
				t.Errorf("%s: Run at %d workers panicked with %v, want %v", tc.name, w, got, chip0)
			}
			if ex := cl.Executor(); ex.Name != "components" || ex.Components != 2 {
				t.Fatalf("%s: Run chose %+v, want components over 2", tc.name, ex)
			}
		}
	}
}

// TestRunExecutorChoice pins Run's routing and the reason it reports.
func TestRunExecutorChoice(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		arm     func(cl *Cluster)
		want    Executor
	}{
		{"clean", 1, nil, Executor{"components", "clean fabric", 2}},
		{"clean-w2", 2, nil, Executor{"components", "clean fabric", 2}},
		{"checkpoint", 1, func(cl *Cluster) { cl.SetCheckpointCadence(650) }, Executor{"sequential", "checkpoint cadence", 1}},
		{"ber-w1", 1, func(cl *Cluster) { cl.SetBitErrorRate(1e-9, 1) }, Executor{"sequential", "bit error rate", 1}},
		{"ber-w2", 2, func(cl *Cluster) { cl.SetBitErrorRate(1e-9, 1) }, Executor{"sequential", "bit error rate", 1}},
	} {
		cl := buildRing(t, 2, 3, 0, tc.workers)
		if tc.arm != nil {
			tc.arm(cl)
		}
		if _, err := cl.Run(); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if got := cl.Executor(); got != tc.want {
			t.Errorf("%s: Executor() = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// A recorder keeps the run off the component executor.
	cl := buildRing(t, 2, 3, 0, 2)
	cl.SetRecorder(obs.New())
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Executor(), (Executor{"sequential", "recorder", 1}); got != want {
		t.Errorf("recorded: Executor() = %+v, want %+v", got, want)
	}
}

// TestNewRejectsMissingSendLink: a program that sends or transmits on a
// link at or past its chip's out-degree is an error from New, so no run
// can reach a delivery on a link that does not exist.
func TestNewRejectsMissingSendLink(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	degree := len(sys.Out(0))
	for _, in := range []isa.Instruction{
		{Op: isa.Send, A: 99},
		{Op: isa.Transmit, A: uint16(degree)},
	} {
		p := &isa.Program{}
		p.AppendTo(isa.C2C, isa.Instruction{Op: isa.Send, A: 0})
		p.AppendTo(isa.C2C, in)
		want := fmt.Sprintf("runtime: chip 0's program sends on link %d, but the chip has %d links", in.A, degree)
		if _, err := New(sys, []*isa.Program{p}); err == nil || err.Error() != want {
			t.Errorf("%v: New error %v, want %q", in, err, want)
		}
	}
	// The last link is still a link.
	p := &isa.Program{}
	p.AppendTo(isa.C2C, isa.Instruction{Op: isa.Transmit, A: uint16(degree - 1)})
	if _, err := New(sys, []*isa.Program{p}); err != nil {
		t.Errorf("transmit on link %d: %v", degree-1, err)
	}
}
