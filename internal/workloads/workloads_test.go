package workloads

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/compiler"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestFig13Shapes(t *testing.T) {
	pts := Fig13(8)
	if len(pts) < 100 {
		t.Fatalf("too few points: %d", len(pts))
	}
	tspMin, a100Min, a100Max := 1.0, 1.0, 0.0
	for _, p := range pts {
		if p.TSPUtil < tspMin {
			tspMin = p.TSPUtil
		}
		if p.A100Util < a100Min {
			a100Min = p.A100Util
		}
		if p.A100Util > a100Max {
			a100Max = p.A100Util
		}
	}
	// The paper's headline: TSP ≥80% everywhere; A100 swings widely.
	if tspMin < 0.80 {
		t.Fatalf("TSP min utilization %.3f", tspMin)
	}
	if a100Max-a100Min < 0.15 {
		t.Fatal("A100 sawtooth missing")
	}
	// And the TSP's floor beats the A100's floor decisively.
	if tspMin < a100Min+0.15 {
		t.Fatalf("TSP floor %.2f should clear A100 floor %.2f", tspMin, a100Min)
	}
}

func TestFig14LatencyFallsThroughputRises(t *testing.T) {
	pts, err := Fig14(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 13 {
		t.Fatalf("points = %d", len(pts))
	}
	// Fig 14's claim: latency falls and total throughput rises as row
	// splits add TSPs (each adds compute AND links).
	if pts[0].TSPs != 8 || pts[12].TSPs != 104 {
		t.Fatalf("TSP counts wrong: %d..%d", pts[0].TSPs, pts[12].TSPs)
	}
	// Latency falls strictly while the group fits one node (R ≤ 8).
	for i := 1; i < 8; i++ {
		if pts[i].LatencyUS >= pts[i-1].LatencyUS {
			t.Fatalf("latency not decreasing at R=%d: %.1f >= %.1f",
				pts[i].RowSplits, pts[i].LatencyUS, pts[i-1].LatencyUS)
		}
	}
	// Beyond the node boundary (R > 8) the inter-node reduction leg
	// flattens the curve; it must stay near the R=8 level, not regress
	// toward shallow splits.
	for i := 8; i < len(pts); i++ {
		if pts[i].LatencyUS > pts[7].LatencyUS*1.3 {
			t.Fatalf("R=%d latency %.1f regressed vs R=8's %.1f",
				pts[i].RowSplits, pts[i].LatencyUS, pts[7].LatencyUS)
		}
	}
	if pts[7].LatencyUS > pts[0].LatencyUS*0.25 {
		t.Fatalf("8 row splits should cut latency hard: %.1f vs %.1f",
			pts[7].LatencyUS, pts[0].LatencyUS)
	}
	if pts[12].TFlops <= pts[0].TFlops {
		t.Fatal("throughput should rise with more TSPs")
	}
	// Utilization stays healthy but decays with deeper splits (reduction
	// overhead amortizes worse).
	for _, p := range pts {
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Fatalf("R=%d utilization %.2f", p.RowSplits, p.Utilization)
		}
	}
	if pts[12].Utilization >= pts[0].Utilization {
		t.Fatal("utilization should decay with split depth")
	}
}

func TestFig15LinearClusterScaling(t *testing.T) {
	pts := Fig15([]int{100, 200, 300}, []int{65000, 130000, 650000})
	if len(pts) != 9 {
		t.Fatalf("points = %d", len(pts))
	}
	byCluster := map[int]float64{}
	for _, p := range pts {
		if p.N == 650000 {
			byCluster[p.TSPs] = p.TFlops
		}
	}
	// Near-linear scaling in cluster size at large N.
	r21 := byCluster[200] / byCluster[100]
	r32 := byCluster[300] / byCluster[200]
	if r21 < 1.8 || r21 > 2.2 || r32 < 1.35 || r32 > 1.65 {
		t.Fatalf("scaling ratios %.2f, %.2f off linear", r21, r32)
	}
	// The paper's headline comparison: the 300-TSP cluster beats the
	// 432-V100 cluster's ~2800 TFLOPs by a large factor.
	if byCluster[300]/2800 < 10 {
		t.Fatalf("speedup vs V100 cluster = %.1fx, want >10x", byCluster[300]/2800)
	}
	// PCIe never binds at these sizes with row-major streaming.
	for _, p := range pts {
		if p.PCIeBound {
			t.Fatalf("N=%d unexpectedly PCIe bound", p.N)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20}
	pts, err := Fig16(sys, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// TSP dominates at small and medium sizes.
	for _, p := range pts[:3] {
		if p.TSPBusBW <= p.A100BusBW {
			t.Fatalf("size %d: TSP %.1f should beat A100 %.1f",
				p.Bytes, p.TSPBusBW, p.A100BusBW)
		}
	}
	// Raw A100 overtakes at very large sizes (it simply has more pins)…
	last := pts[len(pts)-1]
	if last.A100BusBW <= last.TSPBusBW {
		t.Fatalf("at 256MB raw A100 %.1f should exceed TSP %.1f",
			last.A100BusBW, last.TSPBusBW)
	}
	// …but pin-normalized A100 only *matches* the TSP there (paper's
	// normalized series).
	ratio := last.TSPBusBW / last.A100NormBusBW
	if ratio < 0.8 || ratio > 2.0 {
		t.Fatalf("normalized comparison at 256MB: TSP %.1f vs norm-A100 %.1f",
			last.TSPBusBW, last.A100NormBusBW)
	}
	// And normalized A100 is far below TSP at 64KB.
	if pts[1].TSPBusBW < 5*pts[1].A100NormBusBW {
		t.Fatalf("64KB: TSP %.1f vs norm-A100 %.1f — want >5x gap",
			pts[1].TSPBusBW, pts[1].A100NormBusBW)
	}
}

func TestAnalyticAllReduceMatchesScheduled(t *testing.T) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int64{64 << 10, 512 << 10, 4 << 20} {
		r, err := collective.NodeAllReduce(sys, 0, bytes)
		if err != nil {
			t.Fatal(err)
		}
		analytic := NodeAllReduceAnalyticCycles(bytes)
		if r.Cycles != analytic {
			t.Fatalf("%d bytes: scheduled %d vs analytic %d cycles",
				bytes, r.Cycles, analytic)
		}
	}
}

func TestFig17Distribution(t *testing.T) {
	res, err := Fig17(24240, 2022, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 24240 || res.Hist.Total() != 24240 {
		t.Fatal("run count")
	}
	// The compiler estimate tracks the mean within 2% (paper's claim).
	if res.MeanErrorFrac > 0.02 {
		t.Fatalf("estimate error %.3f, want <= 0.02", res.MeanErrorFrac)
	}
	// 99% of runs inside a narrow window above the estimate; all runs
	// bounded (the paper: 99% < 1225 µs, all < 1300 µs — a ~75 µs spread
	// above the floor).
	if res.P99US-res.EstimateUS > 40 {
		t.Fatalf("p99 %.0f µs too far above estimate %.0f", res.P99US, res.EstimateUS)
	}
	if res.MaxUS-res.EstimateUS > 90 {
		t.Fatalf("max %.0f µs too far above estimate %.0f", res.MaxUS, res.EstimateUS)
	}
	// Total latency lands in the paper's regime (~1 ms scale).
	if res.EstimateUS < 700 || res.EstimateUS > 1500 {
		t.Fatalf("estimate %.0f µs outside the BERT-Large regime", res.EstimateUS)
	}
	if res.Hist.Overflow() != 0 {
		t.Fatal("histogram window clipped the tail")
	}
}

func TestFig17Deterministic(t *testing.T) {
	a, err := Fig17(500, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig17(500, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.P99US != b.P99US || a.MaxUS != b.MaxUS {
		t.Fatal("same-seed Fig17 runs differ")
	}
}

func TestFig18LinearScaling(t *testing.T) {
	pts, err := Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	want := []float64{1, 4, 8, 16}
	for i, p := range pts {
		if math.Abs(p.NormalizedThroughput-want[i]) > 0.05 {
			t.Fatalf("%d TSPs: normalized %.2f, want %.0f",
				p.TSPs, p.NormalizedThroughput, want[i])
		}
	}
	if pts[3].RealizedTOPs <= pts[0].RealizedTOPs*15 {
		t.Fatal("16-TSP throughput not ~16x")
	}
}

func TestFig20CompilerContrast(t *testing.T) {
	res, err := Fig20(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimizedCrossings != 3 || res.UnoptimizedCrossings != 23 {
		t.Fatalf("crossings %d/%d", res.OptimizedCrossings, res.UnoptimizedCrossings)
	}
	if res.OptimizedPeriodUS >= res.UnoptimizedPeriodUS {
		t.Fatal("optimized compiler must be faster")
	}
	// The paper reports ~26% realized-throughput improvement; accept the
	// 18-38% band for the model.
	if res.ThroughputGain < 0.18 || res.ThroughputGain > 0.38 {
		t.Fatalf("throughput gain %.2f, want ~0.26", res.ThroughputGain)
	}
	// Every device's C2C time shrinks under the optimized compiler in
	// aggregate (Fig 20's bar chart contrast).
	var uComm, oComm float64
	for d := range res.UnoptCommUS {
		uComm += res.UnoptCommUS[d]
		oComm += res.OptCommUS[d]
	}
	if oComm >= uComm {
		t.Fatalf("optimized C2C total %.1f should be below unoptimized %.1f", oComm, uComm)
	}
	// Compute is FLOP-balanced in both variants: per-device compute
	// should be nearly equal across devices.
	for d := 1; d < len(res.UnoptComputeUS); d++ {
		if math.Abs(res.UnoptComputeUS[d]-res.UnoptComputeUS[0]) > 1 {
			t.Fatalf("unoptimized compute imbalance: %v", res.UnoptComputeUS)
		}
	}
}

func TestCholeskyTimingModel(t *testing.T) {
	// Fig 19 speedups at the evaluation size: ~1.2 / 1.4 / 1.5 for
	// 2/4/8 TSPs.
	const p = 4096
	pts := Fig19([]int{p}, []int{1, 2, 4, 8})
	if len(pts) != 4 {
		t.Fatal("points")
	}
	s2, s4, s8 := pts[1].Speedup, pts[2].Speedup, pts[3].Speedup
	if s2 < 1.1 || s2 > 1.35 {
		t.Fatalf("speedup(2) = %.2f, want ~1.2", s2)
	}
	if s4 < 1.25 || s4 > 1.5 {
		t.Fatalf("speedup(4) = %.2f, want ~1.4", s4)
	}
	if s8 < 1.35 || s8 > 1.6 {
		t.Fatalf("speedup(8) = %.2f, want ~1.5", s8)
	}
	if !(s2 < s4 && s4 < s8) {
		t.Fatal("speedup must grow with TSPs")
	}
	// Realized TFLOPs in the paper's regime (14.9 on 4, 22.4 on 8).
	if pts[2].TFlops < 10 || pts[2].TFlops > 30 {
		t.Fatalf("TFlops(4) = %.1f", pts[2].TFlops)
	}
	if pts[3].TFlops <= pts[2].TFlops {
		t.Fatal("8 TSPs should realize more TFLOPs than 4")
	}
	if CholeskyCycles(0, 4) != 0 || CholeskyCycles(100, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestFunctionalCholeskyCorrect(t *testing.T) {
	// Random SPD matrix via A = B·Bᵀ + p·I.
	const p = 24
	rng := sim.NewRNG(99)
	b := make([][]float32, p)
	for i := range b {
		b[i] = make([]float32, p)
		for j := range b[i] {
			b[i][j] = float32(rng.Float64()*2 - 1)
		}
	}
	a := make([][]float32, p)
	for i := range a {
		a[i] = make([]float32, p)
		for j := range a[i] {
			var s float64
			for k := 0; k < p; k++ {
				s += float64(b[i][k]) * float64(b[j][k])
			}
			if i == j {
				s += p
			}
			a[i][j] = float32(s)
		}
	}
	l, finish, err := RunCholeskyOnChip(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finish <= 0 {
		t.Fatal("no cycles elapsed")
	}
	// Verify L·Lᵀ = A.
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += float64(l[i][k]) * float64(l[j][k])
			}
			if math.Abs(s-float64(a[i][j])) > 1e-2*math.Abs(float64(a[i][j]))+1e-3 {
				t.Fatalf("LL^T[%d][%d] = %f, want %f", i, j, s, a[i][j])
			}
		}
	}
	// Upper triangle of L must be zero.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if l[i][j] != 0 {
				t.Fatalf("L[%d][%d] = %f, want 0", i, j, l[i][j])
			}
		}
	}
}

func TestFunctionalCholeskyDeterministicTiming(t *testing.T) {
	a := [][]float32{{4, 2}, {2, 3}}
	_, f1, err := RunCholeskyOnChip(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := RunCholeskyOnChip(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("functional Cholesky timing must be deterministic")
	}
}

func TestBuildCholeskyProgramValidation(t *testing.T) {
	if _, err := BuildCholeskyProgram(0); err == nil {
		t.Fatal("p=0 should fail")
	}
	if _, err := BuildCholeskyProgram(81); err == nil {
		t.Fatal("p>80 should fail")
	}
}

// TestFig14GraphStats lowers Fig 14's matmul at R=1 and R=4 row splits:
// only row splits put partial products on the network.
func TestFig14GraphStats(t *testing.T) {
	stats := func(rowSplits int) (int64, int) {
		split := compiler.MatmulSplit{
			M: fig14M, N: fig14N, K: fig14K,
			ColSplits: fig14ColSplits, RowSplits: rowSplits,
			Dtype: compiler.FP16,
		}
		g, err := split.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		for _, e := range g.CommEdges() {
			bytes += g.Tensor(e.Tensor).Bytes
		}
		return bytes, len(g.CommEdges())
	}
	// R=1: no reduction traffic (reduce consumes the local partial).
	if bytes1, edges1 := stats(1); edges1 != 0 || bytes1 != 0 {
		t.Fatalf("R=1 traffic %d/%d, want none", bytes1, edges1)
	}
	bytes4, edges4 := stats(4)
	if edges4 != 8*3 {
		t.Fatalf("R=4 edges = %d, want 24", edges4)
	}
	if bytes4 <= 0 {
		t.Fatal("R=4 should move partials")
	}
}

func TestAnalyticHierarchicalMatchesScheduled(t *testing.T) {
	// Validate the closed form against the explicit scheduler where the
	// schedule is small enough to build.
	// Small tensors: hop latency and per-pair adjacency dominate, so the
	// closed form is only band-accurate (hop counts vary 1..3 per owner
	// pair). Large tensors: serialization dominates and the form tightens.
	for _, nodes := range []int{2, 3} {
		sys, err := topo.New(topo.Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			bytes  int64
			lo, hi float64
		}{
			{64 << 10, 0.6, 1.6},
			{512 << 10, 0.7, 1.4},
			// The closed form omits the intra-node legs' contention
			// among the 8 concurrent owners, so the scheduler runs
			// somewhat hotter at mid sizes.
			{4 << 20, 0.8, 1.45},
		} {
			r, err := collective.HierarchicalAllReduce(sys, c.bytes)
			if err != nil {
				t.Fatal(err)
			}
			analytic := HierarchicalAllReduceAnalyticCycles(nodes, c.bytes)
			ratio := float64(r.Cycles) / float64(analytic)
			if ratio < c.lo || ratio > c.hi {
				t.Fatalf("%d nodes %d bytes: scheduled %d vs analytic %d (ratio %.2f)",
					nodes, c.bytes, r.Cycles, analytic, ratio)
			}
		}
	}
}

func TestFig9PushBeatsPull(t *testing.T) {
	pts := Fig9([]int64{320, 4 << 10, 64 << 10, 1 << 20})
	if len(pts) != 4 {
		t.Fatal("points")
	}
	for _, p := range pts {
		if p.PushUS >= p.PullUS {
			t.Fatalf("%d bytes: push %.2f should beat pull %.2f", p.Bytes, p.PushUS, p.PullUS)
		}
	}
	// Fine-grained transfers gain the most: a single vector avoids more
	// than half the protocol cost (the paper: "we only incur half of the
	// network requests", plus the flag/fence elimination).
	if pts[0].Speedup < 2 {
		t.Fatalf("single-vector speedup %.2f, want > 2", pts[0].Speedup)
	}
	// The advantage shrinks as serialization dominates.
	if pts[3].Speedup >= pts[0].Speedup {
		t.Fatal("speedup should shrink with size")
	}
}
