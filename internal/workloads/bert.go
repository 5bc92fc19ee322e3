package workloads

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/clock"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Host-side trace tracks (obs.PidHost) carrying each BERT latency
// experiment's per-inference spans, apart from serve's (tid 1) and the
// fleet engine's (tid 2).
const (
	fig17Tid    = 3
	bertBaseTid = 4
)

// latencyBins is the bin count of a BERT latency histogram; bins are 5 µs
// wide, as in the paper.
const latencyBins = 200

// maxInferenceSpans bounds trace spans per experiment; the histogram and
// counters always cover every simulated inference.
const maxInferenceSpans = 2000

// BERT experiments (§5.4, Figs 17, 18, 20).

// BERTDeployment compiles a BERT stack across TSPs of one node and exposes
// the static latency estimate.
type BERTDeployment struct {
	Config    compiler.BERTConfig
	Partition compiler.Partition
	Schedule  *core.OpSchedule
	// ComputeCycles/CommCycles decompose the critical path.
	ComputeCycles int64
	CommCycles    int64
	// PCIeInCycles/PCIeOutCycles are the deterministic host-transfer
	// components (input embeddings in, answer logits out).
	PCIeInCycles  int64
	PCIeOutCycles int64
}

// DeployBERT compiles the model onto `devices` TSPs of a single node and
// records the compiled schedule into rec (nil records nothing).
func DeployBERT(cfg compiler.BERTConfig, devices int, movementAware bool, rec *obs.Recorder) (*BERTDeployment, error) {
	part, err := compiler.PartitionBERT(cfg, devices, movementAware)
	if err != nil {
		return nil, err
	}
	nodes := sizeNodes((devices + topo.TSPsPerNode - 1) / topo.TSPsPerNode)
	sys, err := topo.New(topo.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	g := part.BuildGraph()
	identity := func(d int) topo.TSPID { return topo.TSPID(d) }
	os, err := core.CompileGraph(sys, g, identity)
	if err != nil {
		return nil, err
	}
	os.RecordObservability(rec, g, identity)
	if err := os.Comms.Verify(); err != nil {
		return nil, fmt.Errorf("workloads: bert schedule: %w", err)
	}
	var compute int64
	for _, c := range os.DeviceBusy {
		compute += c
	}
	d := &BERTDeployment{
		Config:        cfg,
		Partition:     part,
		Schedule:      os,
		ComputeCycles: compute,
		CommCycles:    os.Makespan - criticalCompute(os),
		PCIeInCycles:  compiler.PCIeCycles(cfg.ActivationBytes()),
		PCIeOutCycles: compiler.PCIeCycles(int64(cfg.Seq) * 4), // answer spans
	}
	return d, nil
}

// criticalCompute sums op durations along the pipeline (every op is on the
// single-inference critical path in a linear pipeline).
func criticalCompute(os *core.OpSchedule) int64 {
	var total int64
	for i := range os.Starts {
		total += os.Finish[i] - os.Starts[i]
	}
	return total
}

// EstimateCycles is the compiler's deterministic latency estimate for one
// inference including host transfers — the dotted line of Fig 17.
func (d *BERTDeployment) EstimateCycles() int64 {
	return d.PCIeInCycles + d.Schedule.Makespan + d.PCIeOutCycles
}

// EstimateMicros is EstimateCycles at the nominal core clock.
func (d *BERTDeployment) EstimateMicros() float64 {
	return clock.USOfCycles(d.EstimateCycles())
}

// Fig17Result is the latency distribution experiment.
type Fig17Result struct {
	Runs int
	// Hist bins latencies at 5 µs, as the paper does.
	Hist *stats.Histogram
	// EstimateUS is the compiler's static estimate.
	EstimateUS float64
	// P99US and MaxUS summarize the measured distribution.
	P99US float64
	MaxUS float64
	// MeanErrorFrac is |mean−estimate|/estimate — the paper reports the
	// estimate within 2 % of measurement.
	MeanErrorFrac float64
}

// Fig17 executes `runs` simulated inferences of BERT-Large on 4 TSPs. The
// fabric and compute are cycle-deterministic; all run-to-run variation
// comes from the host-side PCIe transfers (DMA scheduling, host jitter),
// exactly the cause the paper names for its residual variance. The
// deployment and every inference record into rec (nil records nothing).
func Fig17(runs int, seed uint64, rec *obs.Recorder) (*Fig17Result, error) {
	return bertLatency(rec, "fig17", fig17Tid, compiler.BERTLarge(), 4, 200, runs, seed)
}

// BERTBaseSingleTSP reproduces §5.4's companion claim: "when executing
// BERT-Base on a single TSP, we see a similar relationship between the
// estimated and measured latency, where their results are within 2% of
// each other." It records into rec as Fig17 does.
func BERTBaseSingleTSP(runs int, seed uint64, rec *obs.Recorder) (*Fig17Result, error) {
	return bertLatency(rec, "bertbase", bertBaseTid, compiler.BERTBase(), 1, 100, runs, seed)
}

// bertLatency executes `runs` simulated inferences of cfg deployed on
// devices TSPs. Its histograms start below µs under the compiler's
// estimate; exp labels its metrics and names its host trace track tid.
func bertLatency(rec *obs.Recorder, exp string, tid int, cfg compiler.BERTConfig, devices int, below float64, runs int, seed uint64) (*Fig17Result, error) {
	dep, err := DeployBERT(cfg, devices, true, rec)
	if err != nil {
		return nil, err
	}
	est := dep.EstimateMicros()
	origin := math.Floor(est/5)*5 - below
	hist := stats.NewHistogram(origin, 5, latencyBins)
	rng := sim.NewRNG(seed)
	sum := 0.0
	samples := make([]float64, 0, runs)
	maxUS := 0.0
	// The recorded view: an inference counter, a latency histogram on the
	// experiment's binning, and per-inference spans laid end to end on the
	// host timeline from cursor t (µs), since inferences are sequential.
	label := obs.L("exp", exp)
	if rec != nil {
		rec.SetProcessName(obs.PidHost, "host")
		rec.SetThreadName(obs.PidHost, tid, "bert:"+exp)
		rec.Gauge("bert.estimate_cycles", label).Set(dep.EstimateCycles())
	}
	inferences := rec.Counter("bert.inferences", label)
	latency := rec.Histogram("bert.latency_us", origin, 5, latencyBins, label)
	suppressed := rec.Counter("bert.inference_spans_suppressed", label)
	t := 0.0
	for i := 0; i < runs; i++ {
		us := dep.simulateOnce(rng)
		hist.Add(us)
		sum += us
		samples = append(samples, us)
		if us > maxUS {
			maxUS = us
		}
		inferences.Inc()
		latency.Add(us)
		if rec != nil && i < maxInferenceSpans {
			rec.SpanUS(obs.PidHost, tid, fmt.Sprintf("inf%d", i), t, us)
		} else {
			suppressed.Inc()
		}
		t += us
	}
	mean := sum / float64(runs)
	return &Fig17Result{
		Runs:          runs,
		Hist:          hist,
		EstimateUS:    est,
		P99US:         stats.Percentile(samples, 99),
		MaxUS:         maxUS,
		MeanErrorFrac: math.Abs(mean-est) / est,
	}, nil
}

// simulateOnce draws one inference latency in µs: the deterministic
// schedule plus PCIe jitter. PCIe DMA latency has a narrow core (host DMA
// engine scheduling, ~µs scale) and a rare heavier tail (host IRQ
// coalescing), bounded by the runtime's transfer deadline.
func (d *BERTDeployment) simulateOnce(rng *sim.RNG) float64 {
	base := clock.USOfCycles(d.EstimateCycles())
	jitter := math.Abs(rng.NormFloat64()) * 4.0 // µs, half-normal core
	if rng.Float64() < 0.01 {
		// Tail event: an extra host-side delay up to ~60 µs.
		jitter += 20 + rng.Float64()*40
	}
	return base + jitter
}

// Fig18Point is one bar of Fig 18: encoders scaled with devices.
type Fig18Point struct {
	TSPs     int
	Encoders int
	// RealizedTOPs is steady-state pipelined throughput times the
	// stack's op count.
	RealizedTOPs float64
	// NormalizedThroughput is RealizedTOPs relative to the 1-TSP run.
	NormalizedThroughput float64
}

// Fig18 runs the paper's scaling ladder: 6, 24, 48, 96 encoders on 1, 4,
// 8, 16 TSPs (constant 6 encoders per TSP).
func Fig18() ([]Fig18Point, error) {
	type cfg struct{ tsps, encoders int }
	ladder := []cfg{{1, 6}, {4, 24}, {8, 48}, {16, 96}}
	var pts []Fig18Point
	var base float64
	for _, c := range ladder {
		bert := compiler.BERTLarge().WithLayers(c.encoders)
		part, err := compiler.PartitionBERT(bert, c.tsps, true)
		if err != nil {
			return nil, err
		}
		// Steady-state pipelined throughput: one inference per stage
		// time, set by the device that carries the most encoders.
		perDevice := make([]int, c.tsps)
		for _, d := range part.DeviceOf {
			perDevice[d]++
		}
		stageCycles := int64(slices.Max(perDevice)) * bert.LayerCycles()
		infPerSec := float64(compiler.TSPClockHz) / float64(stageCycles)
		tops := infPerSec * float64(bert.TotalOps()) / 1e12
		if base == 0 {
			base = tops
		}
		pts = append(pts, Fig18Point{
			TSPs:                 c.tsps,
			Encoders:             c.encoders,
			RealizedTOPs:         tops,
			NormalizedThroughput: tops / base,
		})
	}
	return pts, nil
}

// Fig20Result contrasts the FLOP-balanced and movement-aware compilers on
// 4-TSP BERT-Large in steady-state pipelined throughput, with the
// per-device compute/C2C breakdown the figure plots.
type Fig20Result struct {
	// Per-device compute and inbound C2C time in µs for each variant.
	UnoptComputeUS, UnoptCommUS []float64
	OptComputeUS, OptCommUS     []float64
	// Pipeline periods (the slowest device's period bounds throughput).
	UnoptimizedPeriodUS, OptimizedPeriodUS float64
	// ThroughputGain is the paper's "~26% improvement in realized
	// throughput": optimized/unoptimized − 1.
	ThroughputGain float64
	// Crossings per variant.
	UnoptimizedCrossings, OptimizedCrossings int
}

// Fig20 builds both deployments and compares steady-state throughput. The
// FLOP-balanced compiler does not coordinate compute with data movement,
// so each device's pipeline period pays compute plus its inbound C2C time;
// the movement-aware compiler both minimizes crossings and overlaps the
// remaining communication behind compute (§4.1: "the compiler will overlap
// as much compute and communication to effectively hide the C2C link
// latency"), so its period is the max of the two. Both deployments
// record into rec (nil records nothing).
func Fig20(rec *obs.Recorder) (*Fig20Result, error) {
	unopt, err := DeployBERT(compiler.BERTLarge(), 4, false, rec)
	if err != nil {
		return nil, err
	}
	opt, err := DeployBERT(compiler.BERTLarge(), 4, true, rec)
	if err != nil {
		return nil, err
	}
	res := &Fig20Result{
		UnoptimizedCrossings: unopt.Partition.Crossings(),
		OptimizedCrossings:   opt.Partition.Crossings(),
	}
	res.UnoptComputeUS, res.UnoptCommUS = perDeviceBreakdownUS(unopt)
	res.OptComputeUS, res.OptCommUS = perDeviceBreakdownUS(opt)
	for d := range res.UnoptComputeUS {
		if p := res.UnoptComputeUS[d] + res.UnoptCommUS[d]; p > res.UnoptimizedPeriodUS {
			res.UnoptimizedPeriodUS = p
		}
	}
	for d := range res.OptComputeUS {
		p := res.OptComputeUS[d]
		if res.OptCommUS[d] > p {
			p = res.OptCommUS[d]
		}
		if p > res.OptimizedPeriodUS {
			res.OptimizedPeriodUS = p
		}
	}
	res.ThroughputGain = res.UnoptimizedPeriodUS/res.OptimizedPeriodUS - 1
	return res, nil
}

// perDeviceBreakdownUS extracts each device's compute occupancy and
// inbound transfer time from the compiled schedule.
func perDeviceBreakdownUS(d *BERTDeployment) (compute, comm []float64) {
	n := d.Partition.Devices
	compute = make([]float64, n)
	comm = make([]float64, n)
	for dev := 0; dev < n && dev < len(d.Schedule.DeviceBusy); dev++ {
		compute[dev] = clock.USOfCycles(d.Schedule.DeviceBusy[dev])
	}
	for _, tr := range d.Schedule.Comms.Transfers {
		dev := int(tr.Dst)
		if dev < n {
			comm[dev] += clock.USOfCycles(tr.Arrival - tr.Depart)
		}
	}
	return compute, comm
}
