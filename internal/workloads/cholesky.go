package workloads

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/tsp"
)

// Cholesky factorization (§5.5, Fig 19).
//
// Two artifacts: a *timing model* of block-cyclic multi-TSP Cholesky that
// reproduces Fig 19's modest speedups (the loop-carried dependence on the
// panel factorization serializes a large fraction of the work), and a
// *functional* single-chip Cholesky compiled down to the reproduction ISA,
// whose result is verified against L·Lᵀ = A.

// Timing-model constants.
const (
	// choleskyIterSerialCycles is the per-iteration dependency chain of
	// §5.5's vector ops (rsqrt → splat → multiply, plus stream/memory
	// turnaround): the loop-carried critical path that no amount of
	// parallelism removes.
	choleskyIterSerialCycles = 220
	// choleskyFlopsPerCycle is the effective aggregate rate of the
	// trailing-matrix update per TSP: the update streams [1×k]×[k×320]
	// vector-matrix products through the MXM at far below dense-GEMM
	// efficiency (narrow panels, short accumulations).
	choleskyFlopsPerCycle = 51200
)

// CholeskyCycles models the execution time of a p×p factorization on
// `tsps` TSPs with block-cyclic 320-row distribution: the serial panel
// chain plus the parallelizable trailing update (total p³/3 flops) plus
// one panel broadcast per iteration (pipelined behind compute; only the
// pipeline fill is exposed).
func CholeskyCycles(p, tsps int) int64 {
	if p <= 0 || tsps <= 0 {
		return 0
	}
	serial := int64(p) * choleskyIterSerialCycles
	flops := int64(p) * int64(p) * int64(p) / 3
	parallel := flops / (choleskyFlopsPerCycle * int64(tsps))
	var bcast int64
	if tsps > 1 {
		// One exposed hop per broadcast epoch (every 320 rows).
		bcast = int64((p+319)/320) * route.HopCycles
	}
	return serial + parallel + bcast
}

// Fig19Point is one (p, tsps) sample.
type Fig19Point struct {
	P, TSPs int
	Cycles  int64
	Seconds float64
	// Speedup is versus the single-TSP run of the same p.
	Speedup float64
	// TFlops is realized FP16 throughput.
	TFlops float64
}

// Fig19 sweeps TSP counts for each problem size.
func Fig19(sizes []int, tspCounts []int) []Fig19Point {
	var pts []Fig19Point
	for _, p := range sizes {
		base := CholeskyCycles(p, 1)
		for _, n := range tspCounts {
			c := CholeskyCycles(p, n)
			sec := float64(c) / compiler.TSPClockHz
			flops := float64(p) * float64(p) * float64(p) / 3
			pts = append(pts, Fig19Point{
				P: p, TSPs: n, Cycles: c, Seconds: sec,
				Speedup: float64(base) / float64(c),
				TFlops:  flops / sec / 1e12,
			})
		}
	}
	return pts
}

// Functional single-chip Cholesky.
//
// The matrix (p ≤ 80, one float32 lane per row) is stored column-major:
// column j lives at memory address [h0, s0, b0, offset j]. Lane-mask
// vectors (mask_k: lanes ≥ k set to 1) are program constants at [h0, s1,
// b0, offset k]. The generated program is statically scheduled: an
// isa.Builder tracks every functional unit's cycle cursor and inserts NOP
// padding so cross-unit data dependencies are satisfied by *time*, never
// by interlocks — the same discipline the paper's compiler applies.

// Cholesky memory layout.
const (
	cholColSlice  = 0 // columns at slice 0, bank 0
	cholMaskSlice = 1 // masks at slice 1, bank 0
)

// BuildCholeskyProgram generates the statically scheduled single-chip
// factorization program for a p×p matrix, p ≤ 80.
func BuildCholeskyProgram(p int) (*isa.Program, error) {
	if p < 1 || p > tsp.FloatLanes {
		return nil, fmt.Errorf("workloads: functional Cholesky supports 1..%d rows, got %d", tsp.FloatLanes, p)
	}
	var b isa.Builder
	// lastWrite[j] is the completion time of the latest write to col j.
	lastWrite := make([]int64, p)

	read := func(slice, offset int, stream uint16, notBefore int64) int64 {
		return b.After(isa.MEM, notBefore, isa.Instruction{
			Op: isa.Read, A: uint16(slice), B: 0, C: uint16(offset), Imm: int32(stream),
		})
	}
	write := func(offset int, stream uint16, notBefore int64) int64 {
		return b.After(isa.MEM, notBefore, isa.Instruction{
			Op: isa.Write, A: cholColSlice, B: 0, C: uint16(offset), Imm: int32(stream),
		})
	}
	vxm := func(op isa.Op, a, bb, c uint16, imm int32, notBefore int64) int64 {
		return b.After(isa.VXM, notBefore, isa.Instruction{Op: op, A: a, B: bb, C: c, Imm: imm})
	}

	for k := 0; k < p; k++ {
		// s1 = column k (current trailing state).
		tCol := read(cholColSlice, k, 1, lastWrite[k])
		// s2 = splat of the diagonal lane; s3 = rsqrt.
		tSplat := vxm(isa.VSplat, 1, 0, 2, int32(k), tCol)
		tRsqrt := vxm(isa.VRsqrt, 2, 0, 3, 0, tSplat)
		// s4 = column * rsqrt(diag) — §5.5's updates vector.
		tScaled := vxm(isa.VMul, 1, 3, 4, 0, tRsqrt)
		// s6 = s4 masked to lanes >= k: the L column.
		tMask := read(cholMaskSlice, k, 5, 0)
		tL := vxm(isa.VMul, 4, 5, 6, 0, max(tScaled, tMask))
		lastWrite[k] = write(k, 6, tL)

		// Trailing update: col_j -= L_k[j] · L_k for j > k.
		for j := k + 1; j < p; j++ {
			tSp := vxm(isa.VSplat, 6, 0, 7, int32(j), tL)
			tRj := read(cholColSlice, j, 8, lastWrite[j])
			tMul := vxm(isa.VMul, 6, 7, 9, 0, tSp)
			tSub := vxm(isa.VSub, 8, 9, 10, 0, max(tMul, tRj))
			lastWrite[j] = write(j, 10, tSub)
		}
	}
	b.After(isa.ICU, b.Cursor(isa.VXM), isa.Instruction{Op: isa.Halt})
	return b.Program(), nil
}

// RunCholeskyOnChip factors the symmetric positive-definite p×p matrix a
// (a[i][j] is row i, column j; p ≤ 80) on one simulated chip. It returns
// the lower-triangular factor L, indexed the same way, and the chip's
// finish cycle. The chip records into rec (nil records nothing). A matrix
// that is not square is an error.
func RunCholeskyOnChip(a [][]float32, rec *obs.Recorder) ([][]float32, int64, error) {
	p := len(a)
	for i, row := range a {
		if len(row) != p {
			return nil, 0, fmt.Errorf("workloads: Cholesky needs a square matrix, row %d of %d has %d entries", i, p, len(row))
		}
	}
	prog, err := BuildCholeskyProgram(p)
	if err != nil {
		return nil, 0, err
	}
	chip := tsp.New(0, prog, nil)
	chip.AttachRecorder(rec)
	// Load columns and masks.
	for j := 0; j < p; j++ {
		col := make([]float32, tsp.FloatLanes)
		for i := 0; i < p; i++ {
			col[i] = a[i][j]
		}
		v := tsp.VectorOf(col)
		chip.Mem.Write(mem.Addr{Slice: cholColSlice, Offset: j}, v[:])

		mask := make([]float32, tsp.FloatLanes)
		for i := j; i < tsp.FloatLanes; i++ {
			mask[i] = 1
		}
		mv := tsp.VectorOf(mask)
		chip.Mem.Write(mem.Addr{Slice: cholMaskSlice, Offset: j}, mv[:])
	}
	finish, fault := chip.Run()
	if fault != nil {
		return nil, finish, fault
	}
	l := make([][]float32, p)
	for i := range l {
		l[i] = make([]float32, p)
	}
	for j := 0; j < p; j++ {
		data, ok := chip.Mem.Read(mem.Addr{Slice: cholColSlice, Offset: j})
		if !ok {
			return nil, finish, fmt.Errorf("workloads: poisoned column %d", j)
		}
		var v tsp.Vector
		copy(v[:], data)
		f := v.Floats()
		for i := j; i < p; i++ {
			l[i][j] = f[i]
		}
	}
	return l, finish, nil
}
