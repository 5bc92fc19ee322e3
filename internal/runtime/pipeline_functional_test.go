package runtime

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/topo"
	"repro/internal/tsp"
)

// TestFunctionalFourStagePipeline runs a real 4-chip model-parallel
// pipeline: each stage applies its own matrix (a [k×k] vector-matrix
// product through the MXM) plus a ReLU, then forwards the activation to
// the next chip at a statically scheduled cycle. The final activation is
// checked against a host-side reference — pipelined model parallelism
// (§4.1) exercised functionally through the full stack.
func TestFunctionalFourStagePipeline(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		stages = 4
		k      = 8 // activation width
	)

	// Per-stage weights: W[s][r][c].
	w := make([][][]float32, stages)
	for s := range w {
		w[s] = make([][]float32, k)
		for r := range w[s] {
			w[s][r] = make([]float32, k)
			for c := range w[s][r] {
				// Small, mixed-sign values keep activations tame.
				w[s][r][c] = float32((r+2*c+s)%5-2) * 0.25
			}
		}
	}
	x0 := []float32{1, -2, 3, -4, 5, -6, 7, -8}

	// Host reference.
	ref := append([]float32(nil), x0...)
	for s := 0; s < stages; s++ {
		next := make([]float32, k)
		for c := 0; c < k; c++ {
			var acc float64
			for r := 0; r < k; r++ {
				acc += float64(ref[r]) * float64(w[s][r][c])
			}
			if acc < 0 {
				acc = 0 // ReLU
			}
			next[c] = float32(acc)
		}
		ref = next
	}

	// Static schedule: stage s computes during its window and sends at
	// sendAt(s); stage s+1 receives at sendAt(s)+HopCycles and begins.
	// Compute time per stage: k load_weights (k cycles) + matmul (k) +
	// relu (2) ≈ small; window of 100 cycles is generous.
	const window = 100
	const hop = 650
	progs := make([]*isa.Program, 8)
	for s := 0; s < stages; s++ {
		var b isa.Builder
		start := int64(s) * (window + hop)
		// Receive the activation (stages > 0).
		if s > 0 {
			b.At(isa.C2C, start, isa.Instruction{
				Op: isa.Recv, A: uint16(linkIndex(t, sys, topo.TSPID(s), topo.TSPID(s-1))), B: 0,
			})
		}
		// Compute: weights live in streams 1..k (preloaded), activation
		// in stream 0. MXM ops start after the recv.
		for r := 0; r < k; r++ {
			b.After(isa.MXM, start+2, isa.Instruction{Op: isa.LoadWeights, A: uint16(1 + r), B: uint16(r)})
		}
		b.After(isa.MXM, 0, isa.Instruction{Op: isa.MatMul, A: 0, B: 30, Imm: k})
		// ReLU on the VXM after the matmul retires (k loads + k rows).
		b.At(isa.VXM, start+2+int64(2*k)+2, isa.Instruction{Op: isa.VRelu, A: 30, C: 31})
		// Forward (stages < last): send after the window closes.
		if s < stages-1 {
			b.At(isa.C2C, start+window-1, isa.Instruction{
				Op: isa.Send, A: uint16(linkIndex(t, sys, topo.TSPID(s), topo.TSPID(s+1))), B: 31,
			})
		}
		progs[s] = b.Program()
	}

	cl, err := New(sys, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Preload weights and the input activation.
	for s := 0; s < stages; s++ {
		for r := 0; r < k; r++ {
			cl.Chip(s).SetStream(1+r, tsp.VectorOf(w[s][r]))
		}
	}
	cl.Chip(0).SetStream(0, tsp.VectorOf(x0))

	finish, err := cl.Run()
	if err != nil {
		t.Fatalf("pipeline faulted: %v", err)
	}
	got := cl.Chip(stages - 1).StreamFloats(31)
	for c := 0; c < k; c++ {
		if math.Abs(float64(got[c]-ref[c])) > 1e-4 {
			t.Fatalf("output[%d] = %f, want %f", c, got[c], ref[c])
		}
	}
	if finish <= 3*(window+hop) {
		t.Fatalf("finish %d implausibly early", finish)
	}
}
