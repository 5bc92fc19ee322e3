// Functional-kernel benchmarks: throughput of the chip-level simulator
// executing real programs — the cost of cycle-accurate functional
// simulation, not of the modeled hardware.
package repro_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// BenchmarkFunctionalCholesky measures a 32×32 on-chip factorization per
// iteration (program build + execute + verify-free readback).
func BenchmarkFunctionalCholesky(b *testing.B) {
	const n = 32
	rng := sim.NewRNG(1)
	a := make([][]float32, n)
	for i := range a {
		a[i] = make([]float32, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := float32(rng.Float64())
			a[i][j], a[j][i] = v, v
		}
		a[i][i] += n
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		var err error
		_, cycles, err = workloads.RunCholeskyOnChip(a, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "chip-cycles")
}

// BenchmarkFunctionalEncoder measures one attention+FFN layer execution.
func BenchmarkFunctionalEncoder(b *testing.B) {
	rng := sim.NewRNG(2)
	const s, h, f = 4, 8, 16
	mk := func(rows, cols int) [][]float32 {
		out := make([][]float32, rows)
		for r := range out {
			out[r] = make([]float32, cols)
			for c := range out[r] {
				out[r][c] = float32(rng.Float64() - 0.5)
			}
		}
		return out
	}
	p := &workloads.EncoderParams{
		Seq: s, Hidden: h, FFN: f,
		Wq: mk(h, h), Wk: mk(h, h), Wv: mk(h, h),
		W1: mk(h, f), W2: mk(f, h),
	}
	x := mk(s, h)
	var cycles int64
	for i := 0; i < b.N; i++ {
		var err error
		_, cycles, err = workloads.RunEncoderOnChip(p, x)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "chip-cycles")
}

// BenchmarkFunctionalAllReduce measures the 8-chip exchange end to end.
func BenchmarkFunctionalAllReduce(b *testing.B) {
	inputs := make([][]float32, 8)
	for i := range inputs {
		inputs[i] = make([]float32, 80)
		for l := range inputs[i] {
			inputs[i][l] = float32(i + l)
		}
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		var err error
		_, cycles, err = workloads.FunctionalAllReduce(inputs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles), "cluster-cycles")
}
