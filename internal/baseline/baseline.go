// Package baseline models the conventional-hardware comparators the paper
// evaluates against: an Nvidia A100 GPU for single-chip matmul utilization
// (Fig 13) and an 8-GPU NVSwitch system running NCCL-style ring All-Reduce
// for collective bandwidth (Fig 16). The V100 cluster of Fig 15 is modeled
// from its published aggregate throughput.
//
// These are analytic models built from vendor-published microarchitectural
// facts (SM counts, tile shapes, link bandwidths, launch overheads), the
// same sources the paper cites ([33] NVIDIA's matmul guide, [34]
// nccl-tests). The goal is the comparison's *shape*: where the GPU's
// utilization dips and why, and where its collectives pay latency that the
// scheduled fabric does not.
package baseline

// A100 microarchitectural constants.
const (
	// A100PeakFP16TFlops is dense FP16 tensor-core peak.
	A100PeakFP16TFlops = 312.0
	// A100SMs is the streaming-multiprocessor count.
	A100SMs = 108
	// TileM/TileN are the CUTLASS-style threadblock output tile the
	// NVIDIA matmul guide uses in its utilization discussion.
	TileM = 256
	TileN = 128
	// NVLinkGBps is per-GPU NVLink bandwidth through NVSwitch (the
	// footnote of Fig 16: 300 GB/s per GPU).
	NVLinkGBps = 300.0
)

// A100MatmulUtilization models the achievable fraction of peak for an
// [M×K]×[K×N] FP16 matmul: threadblock tiles quantize the output, and the
// final partial "wave" of tiles leaves SMs idle. This is the mechanism
// behind Fig 13's sawtooth: utilization dips whenever ceil-division
// boundaries are crossed.
func A100MatmulUtilization(m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 0
	}
	tilesM := ceilDiv(m, TileM)
	tilesN := ceilDiv(n, TileN)
	tiles := tilesM * tilesN
	waves := ceilDiv(tiles, A100SMs)
	waveEff := float64(tiles) / float64(waves*A100SMs)
	tileEff := float64(m*n) / float64(tilesM*TileM*tilesN*TileN)
	// Fixed pipeline efficiency: epilogue, DRAM, instruction overheads.
	const pipeEff = 0.90
	return waveEff * tileEff * pipeEff
}

// A100MatmulTFlops returns modeled achieved TFLOPs.
func A100MatmulTFlops(m, n, k int) float64 {
	return A100PeakFP16TFlops * A100MatmulUtilization(m, n, k)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Ring All-Reduce model (NCCL on an 8-GPU NVSwitch system).
const (
	// LaunchOverheadSec is the kernel-launch plus flag/fence
	// synchronization cost the paper's §5.3 discussion attributes to
	// lock-based shared-memory mailboxes. NCCL small-message latency on
	// PCIe/NVLink systems is ~10-20 µs; we use 15 µs.
	LaunchOverheadSec = 15e-6
	// StepAlphaSec is the per-ring-step latency (kernel pipeline + flag
	// check).
	StepAlphaSec = 1.5e-6
	// LinkEfficiency derates NVLink for protocol overhead.
	LinkEfficiency = 0.80
)

// RingAllReduceSec models the completion time of an n-GPU ring All-Reduce
// of s bytes: 2(n−1) steps, each moving s/n bytes per GPU at NVLink rate,
// plus per-step alpha and the fixed launch/synchronization overhead.
func RingAllReduceSec(n int, s int64) float64 {
	if n < 2 {
		return LaunchOverheadSec
	}
	steps := float64(2 * (n - 1))
	perStepBytes := float64(s) / float64(n)
	bw := NVLinkGBps * 1e9 * LinkEfficiency
	return LaunchOverheadSec + steps*(StepAlphaSec+perStepBytes/bw)
}

// RingAllReduceBusBW returns the nccl-tests bus bandwidth in GB/s.
func RingAllReduceBusBW(n int, s int64) float64 {
	t := RingAllReduceSec(n, s)
	if t <= 0 {
		return 0
	}
	return 2 * float64(n-1) / float64(n) * float64(s) / t / 1e9
}

// NormalizeToTSPPin rescales an A100 bandwidth to what it would be if the
// GPU had only a TSP's pin bandwidth (Fig 16's "normalized" series): the
// TSP reaches its node peers over 7×12.5 GB/s of links versus the A100's
// 300 GB/s of NVLink.
func NormalizeToTSPPin(busBW float64) float64 {
	const tspPin = 7 * 12.5
	return busBW * tspPin / NVLinkGBps
}

// V100 cluster comparator for Fig 15 ([17]: PaRSEC multi-GPU GEMM).
const (
	// V100ClusterGPUs and V100ClusterTFlops are the paper's cited
	// comparison point: ~2800 FP64 TFLOPs on 432 GPUs at N=650,000.
	V100ClusterGPUs   = 432
	V100ClusterTFlops = 2800.0
)
