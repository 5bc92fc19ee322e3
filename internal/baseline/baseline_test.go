package baseline

import "testing"

func TestA100UtilizationBounds(t *testing.T) {
	for n := 100; n <= 4000; n += 37 {
		u := A100MatmulUtilization(2304, n, 4096)
		if u <= 0 || u > 1 {
			t.Fatalf("N=%d: utilization %f out of range", n, u)
		}
	}
	if A100MatmulUtilization(0, 10, 10) != 0 {
		t.Fatal("degenerate dims should be zero")
	}
}

// TestFig13A100Sawtooth: the A100 model must show the quantization dips the
// paper contrasts with the TSP's flat ≥80 % curve — utilization varies
// substantially over the N range of Fig 13, dipping well below 70 %.
func TestFig13A100Sawtooth(t *testing.T) {
	min, max := 1.0, 0.0
	for n := 1376; n <= 3500; n += 4 {
		u := A100MatmulUtilization(2304, n, 4096)
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max-min < 0.15 {
		t.Fatalf("A100 curve too flat: min %.2f max %.2f", min, max)
	}
	if min > 0.70 {
		t.Fatalf("A100 min utilization %.2f, want dips below 0.70", min)
	}
	if max < 0.75 {
		t.Fatalf("A100 max utilization %.2f, want peaks above 0.75", max)
	}
}

func TestA100UtilizationDipsAtWaveBoundary(t *testing.T) {
	// Just past a wave boundary utilization drops: compare a full-wave N
	// against one tile more. M=2304 → 9 tile rows; 12 tile cols = 108
	// tiles = exactly one wave; 13 cols starts a second wave.
	full := A100MatmulUtilization(2304, 12*TileN, 4096)
	spill := A100MatmulUtilization(2304, 12*TileN+1, 4096)
	if spill >= full {
		t.Fatalf("wave spill should hurt: full %.3f spill %.3f", full, spill)
	}
	if full/spill < 1.5 {
		t.Fatalf("wave-boundary dip too shallow: %.3f vs %.3f", full, spill)
	}
}

func TestA100TFlops(t *testing.T) {
	tf := A100MatmulTFlops(2304, 3072, 4096)
	if tf <= 0 || tf > A100PeakFP16TFlops {
		t.Fatalf("TFLOPs = %f", tf)
	}
}

func TestRingAllReduceLatencyFloor(t *testing.T) {
	// Tiny messages pay the full launch overhead: ≥15 µs.
	if sec := RingAllReduceSec(8, 1024); sec < LaunchOverheadSec {
		t.Fatalf("1KB all-reduce %.1f µs, below launch floor", sec*1e6)
	}
	// Time grows with size.
	if RingAllReduceSec(8, 1<<30) <= RingAllReduceSec(8, 1<<20) {
		t.Fatal("time must grow with size")
	}
	// Degenerate single GPU.
	if RingAllReduceSec(1, 1<<20) != LaunchOverheadSec {
		t.Fatal("single GPU should cost only the launch")
	}
}

func TestRingAllReduceBusBWShape(t *testing.T) {
	// Fig 16 A100 series: low bandwidth at small sizes, approaching the
	// NVLink-derated ceiling at large sizes.
	small := RingAllReduceBusBW(8, 32<<10)
	large := RingAllReduceBusBW(8, 1<<30)
	if small > 20 {
		t.Fatalf("32KB busbw = %.1f GB/s, should be latency-crippled", small)
	}
	if large < 180 || large > 245 {
		t.Fatalf("1GB busbw = %.1f GB/s, want ~200-240", large)
	}
	// Monotone non-decreasing over the sweep.
	prev := 0.0
	for s := int64(1 << 10); s <= 1<<30; s <<= 2 {
		bw := RingAllReduceBusBW(8, s)
		if bw < prev*0.999 {
			t.Fatalf("busbw regressed at %d bytes", s)
		}
		prev = bw
	}
}

// TestFig16Crossover: the TSP's advantage is at small/medium sizes; after
// pin-bandwidth normalization the A100 should land in the same ballpark as
// the TSP at large sizes (the paper: "matches A100 at large tensor size
// while significantly outperforming at smaller").
func TestFig16NormalizedCeiling(t *testing.T) {
	largeNorm := NormalizeToTSPPin(RingAllReduceBusBW(8, 1<<30))
	if largeNorm < 50 || largeNorm > 75 {
		t.Fatalf("normalized large-tensor busbw = %.1f GB/s, want ~55-70", largeNorm)
	}
}
