// Micro-benchmarks for the lane-typed fast path's primitive costs: the
// byte↔lane codecs, the vector ALU kernels through the real execute
// dispatch, and the worst case where every operand must be re-decoded
// (the shape of the old always-bytes path). Run with the cluster grid:
//
//	go test -run '^$' -bench 'BenchmarkHotpath' -cpu 1 ./...
package tsp

import (
	"testing"

	"repro/internal/isa"
)

func benchVector() Vector {
	var f [FloatLanes]float32
	for i := range f {
		f[i] = float32(i)*0.25 - 7
	}
	v := VectorOf(f[:])
	return v
}

// The codec benchmarks write into package-level sinks: a local result that
// is never read lets the compiler drop the bit-copy codec entirely.
var (
	lanesSink  Lanes
	vectorSink Vector
)

func BenchmarkHotpathDecode(b *testing.B) {
	v := benchVector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.decodeInto(&lanesSink)
	}
}

func BenchmarkHotpathEncode(b *testing.B) {
	var l Lanes
	for i := range l {
		l[i] = float32(i) * 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vectorSink.encodeFrom(&l)
	}
}

// BenchmarkHotpathVAddLaneHot measures the steady-state ALU kernel: both
// operands stay lane-valid across iterations, so no codec runs at all —
// the fast path the lane cache buys.
func BenchmarkHotpathVAddLaneHot(b *testing.B) {
	c := New(0, &isa.Program{}, nil)
	c.SetStream(1, benchVector())
	c.SetStream(2, benchVector())
	in := isa.Instruction{Op: isa.VAdd, A: 1, B: 2, C: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.execute(isa.VXM, in, 0)
	}
}

// BenchmarkHotpathVAddByteCold measures the worst case: a byte write lands
// on an operand every iteration, so the kernel pays one decode per op —
// the cost shape of the retired always-bytes path.
func BenchmarkHotpathVAddByteCold(b *testing.B) {
	c := New(0, &isa.Program{}, nil)
	v := benchVector()
	c.SetStream(2, benchVector())
	in := isa.Instruction{Op: isa.VAdd, A: 1, B: 2, C: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetStream(1, v)
		c.execute(isa.VXM, in, 0)
	}
}

// BenchmarkHotpathMatMulDense runs an 80-row matmul with a fully dense
// activation vector — the nzTop bound cannot prune anything, so this is
// the raw MXM kernel.
func BenchmarkHotpathMatMulDense(b *testing.B) {
	c := New(0, &isa.Program{}, nil)
	c.SetStream(1, benchVector())
	w := benchVector()
	for r := 0; r < WeightRows; r++ {
		c.SetStream(4, w)
		c.execute(isa.MXM, isa.Instruction{Op: isa.LoadWeights, A: 4, B: uint16(r)}, 0)
	}
	in := isa.Instruction{Op: isa.MatMul, A: 1, B: 40, Imm: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.execute(isa.MXM, in, 0)
	}
}

// BenchmarkHotpathMatMulSparse runs the same matmul with a 4-live-lane
// activation — the benchmark workloads' shape — so the nzTop bound prunes
// the dead row tail.
func BenchmarkHotpathMatMulSparse(b *testing.B) {
	c := New(0, &isa.Program{}, nil)
	c.SetStream(1, VectorOf([]float32{3, 1, -2, 5}))
	in := isa.Instruction{Op: isa.MatMul, A: 1, B: 40, Imm: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.execute(isa.MXM, in, 0)
	}
}

// BenchmarkHotpathStreamRoundTrip measures the full boundary round trip:
// an ALU write followed by an architectural byte read (Stream), forcing
// one lazy encode per iteration.
func BenchmarkHotpathStreamRoundTrip(b *testing.B) {
	c := New(0, &isa.Program{}, nil)
	c.SetStream(1, benchVector())
	c.SetStream(2, benchVector())
	in := isa.Instruction{Op: isa.VMul, A: 1, B: 2, C: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.execute(isa.VXM, in, 0)
		v := c.Stream(3)
		_ = v
	}
}
