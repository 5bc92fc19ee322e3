// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment's data and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation section. EXPERIMENTS.md records the
// paper-versus-measured comparison for every entry.
package repro_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/c2c"
	"repro/internal/clock"
	"repro/internal/collective"
	"repro/internal/fabric"
	"repro/internal/hac"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workloads"
)

// BenchmarkFig02BandwidthProfile sweeps every deployable system size and
// reports the three plateau levels of the Fig 2 curve.
func BenchmarkFig02BandwidthProfile(b *testing.B) {
	var pts []topo.ProfilePoint
	for i := 0; i < b.N; i++ {
		pts = sinkProfile(topo.BandwidthProfile())
	}
	b.ReportMetric(pts[0].GBps, "GBps/TSP@8")
	b.ReportMetric(pts[32].GBps, "GBps/TSP@264")
	b.ReportMetric(pts[len(pts)-1].GBps, "GBps/TSP@10440")
}

func sinkProfile(p []topo.ProfilePoint) []topo.ProfilePoint { return p }

// BenchmarkTable2HAC runs the reflect-protocol characterization of one
// intra-node link (100K iterations, as the paper does) and reports the
// Table 2 row statistics.
func BenchmarkTable2HAC(b *testing.B) {
	var s *stats.Summary
	for i := 0; i < b.N; i++ {
		link := c2c.New(c2c.IntraNode(), sim.NewRNG(42).Fork(uint64(i%7)))
		s = hac.CharacterizeLink(link, 100_000)
	}
	b.ReportMetric(s.Mean(), "mean-cycles")
	b.ReportMetric(s.Std(), "std-cycles")
	b.ReportMetric(s.Min(), "min-cycles")
	b.ReportMetric(s.Max(), "max-cycles")
}

// BenchmarkFig07Alignment brings up a full 8-TSP node: HAC tree alignment
// plus the DESKEW program-start handshake, reporting the start-time spread.
func BenchmarkFig07Alignment(b *testing.B) {
	var spread sim.Time
	for i := 0; i < b.N; i++ {
		rng := sim.NewRNG(uint64(7 + i))
		devs := make([]*hac.Device, 8)
		for j := range devs {
			devs[j] = hac.NewDevice(j, clock.DefaultDrift.Draw(rng, j))
		}
		tree := hac.BuildStar(devs, func(k int) *c2c.Link {
			return c2c.New(c2c.IntraNode(), rng.Fork(uint64(100+k)))
		}, 10_000, nil)
		ar := tree.Align(0, 2, 10, 500)
		if !ar.Converged {
			b.Fatal("alignment failed")
		}
		spread = hac.AlignProgramStart(tree, ar.End).Spread
	}
	b.ReportMetric(spread.Nanoseconds(), "start-spread-ns")
}

// BenchmarkFig08Variance contrasts per-vector arrival variance between the
// dynamic baseline and the scheduled fabric under the Fig 8 contention
// pattern.
func BenchmarkFig08Variance(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	routeA := append(sys.Between(0, 1), sys.Between(1, 3)[0])
	routeB := sys.Between(1, 3)
	var dynStd float64
	for i := 0; i < b.N; i++ {
		s := stats.NewSummary()
		for seed := uint64(0); seed < 20; seed++ {
			d := fabric.NewDynamic(sys, seed+uint64(i))
			for v := 0; v < 50; v++ {
				d.Inject(v, routeA, int64(v)*2*route.SlotCycles)
				d.Inject(100+v, routeB, int64(v)*2*route.SlotCycles+route.HopCycles)
			}
			for _, del := range d.Run() {
				if del.VectorID == 125 {
					s.Add(float64(del.Arrival))
				}
			}
		}
		dynStd = s.Std()
	}
	b.ReportMetric(dynStd, "dynamic-std-cycles")
	b.ReportMetric(0, "ssn-std-cycles") // exact by construction
}

// BenchmarkFig10NonMinimal evaluates the minimal/non-minimal split
// optimizer across the Fig 10 sweep.
func BenchmarkFig10NonMinimal(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		for _, size := range []int{1 << 10, 8 << 10, 64 << 10, 1 << 20} {
			for k := 1; k <= 7; k++ {
				speedup = route.Speedup(size, k)
			}
		}
	}
	b.ReportMetric(speedup, "speedup-1MB-7paths")
	b.ReportMetric(float64(route.CrossoverBytes()), "crossover-bytes")
}

// BenchmarkFig11Encoding measures frame encode+FEC+decode throughput and
// reports the wire efficiency.
func BenchmarkFig11Encoding(b *testing.B) {
	link := c2c.New(c2c.IntraNode(), sim.NewRNG(1))
	var v [c2c.VectorBytes]byte
	b.SetBytes(c2c.VectorBytes)
	for i := 0; i < b.N; i++ {
		v[0] = byte(i)
		link.TransferVector(&v)
	}
	b.ReportMetric(100*c2c.EncodingEfficiency(), "wire-efficiency-%")
}

// BenchmarkFig13Utilization sweeps the single-chip matmul comparison.
func BenchmarkFig13Utilization(b *testing.B) {
	var pts []workloads.Fig13Point
	for i := 0; i < b.N; i++ {
		pts = workloads.Fig13(4)
	}
	tspMin, a100Min := 1.0, 1.0
	for _, p := range pts {
		if p.TSPUtil < tspMin {
			tspMin = p.TSPUtil
		}
		if p.A100Util < a100Min {
			a100Min = p.A100Util
		}
	}
	b.ReportMetric(100*tspMin, "tsp-min-util-%")
	b.ReportMetric(100*a100Min, "a100-min-util-%")
}

// BenchmarkFig14DistMatmul compiles the full 13-point row-split sweep.
func BenchmarkFig14DistMatmul(b *testing.B) {
	var pts []workloads.Fig14Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = workloads.Fig14(13)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].LatencyUS, "latency-us@8TSP")
	b.ReportMetric(pts[7].LatencyUS, "latency-us@64TSP")
	b.ReportMetric(pts[7].TFlops, "TFLOPs@64TSP")
}

// BenchmarkFig15ClusterThroughput evaluates the 100/200/300-TSP clusters.
func BenchmarkFig15ClusterThroughput(b *testing.B) {
	var pts []workloads.Fig15Point
	for i := 0; i < b.N; i++ {
		pts = workloads.Fig15([]int{100, 200, 300}, []int{65000, 650000})
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.TFlops, "TFLOPs@300TSP-650k")
	b.ReportMetric(last.SpeedupVsV100Cluster, "speedup-vs-V100s")
}

// BenchmarkFig16AllReduce schedules the 8-way All-Reduce at a
// representative size and reports realized bus bandwidth against the
// baselines.
func BenchmarkFig16AllReduce(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	var r collective.Result
	for i := 0; i < b.N; i++ {
		r, err = collective.NodeAllReduce(sys, 0, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BusBandwidthGBps(), "tsp-busbw-GBps@1MB")
	b.ReportMetric(baseline.RingAllReduceBusBW(8, 1<<20), "a100-busbw-GBps@1MB")
}

// BenchmarkFig17BERTHistogram runs the full 24,240-inference distribution.
func BenchmarkFig17BERTHistogram(b *testing.B) {
	var res *workloads.Fig17Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workloads.Fig17(24240, 2022, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EstimateUS, "estimate-us")
	b.ReportMetric(res.P99US, "p99-us")
	b.ReportMetric(res.MaxUS, "max-us")
	b.ReportMetric(100*res.MeanErrorFrac, "estimate-error-%")
}

// BenchmarkFig18BERTScaling runs the encoder-scaling ladder.
func BenchmarkFig18BERTScaling(b *testing.B) {
	var pts []workloads.Fig18Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = workloads.Fig18()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[3].NormalizedThroughput, "norm-throughput@16TSP")
	b.ReportMetric(pts[3].RealizedTOPs, "realized-TOPs@16TSP")
}

// BenchmarkFig19Cholesky runs both the scaling model and the functional
// single-chip factorization.
func BenchmarkFig19Cholesky(b *testing.B) {
	a := [][]float32{{25, 15, -5}, {15, 18, 0}, {-5, 0, 11}}
	var pts []workloads.Fig19Point
	for i := 0; i < b.N; i++ {
		pts = workloads.Fig19([]int{4096}, []int{1, 2, 4, 8})
		if _, _, err := workloads.RunCholeskyOnChip(a, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[3].Speedup, "speedup@8TSP")
	b.ReportMetric(pts[3].TFlops, "TFLOPs@8TSP")
}

// BenchmarkFig20CompilerOpt compiles both partitioning variants.
func BenchmarkFig20CompilerOpt(b *testing.B) {
	var res *workloads.Fig20Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workloads.Fig20(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.ThroughputGain, "throughput-gain-%")
}

// BenchmarkSec56LatencyBound evaluates the hierarchical All-Reduce latency
// floor on the 256-TSP system.
func BenchmarkSec56LatencyBound(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 32})
	if err != nil {
		b.Fatal(err)
	}
	var cyc int64
	for i := 0; i < b.N; i++ {
		cyc = collective.LatencyBoundCycles(sys)
	}
	b.ReportMetric(clock.USOfCycles(cyc), "allreduce-bound-us")
}
