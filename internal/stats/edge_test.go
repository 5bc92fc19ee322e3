package stats

import (
	"math"
	"testing"
)

// Edge cases for the quantile/percentile machinery the observability dumps
// lean on: an exported histogram must answer Quantile sanely even when it is
// empty, degenerate (one bin), or dominated by out-of-range samples.

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	// No samples: every quantile collapses to the first bin's upper edge
	// (target rank 0 is met immediately), and must not panic or return NaN.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if math.IsNaN(got) {
			t.Fatalf("Quantile(%v) on empty histogram = NaN", q)
		}
		if got != 10 {
			t.Errorf("Quantile(%v) on empty histogram = %v, want 10", q, got)
		}
	}
}

func TestQuantileSingleBin(t *testing.T) {
	h := NewHistogram(100, 50, 1)
	for i := 0; i < 7; i++ {
		h.Add(120)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 150 {
			t.Errorf("Quantile(%v) = %v, want single bin edge 150", q, got)
		}
	}
}

func TestQuantileOverflowHeavy(t *testing.T) {
	h := NewHistogram(0, 1, 4) // covers [0, 4)
	h.Add(0.5)                 // bin 0
	for i := 0; i < 99; i++ {
		h.Add(1000) // overflow
	}
	// 1% of mass is in-range; everything else is above the histogram.
	if got := h.Quantile(0.01); got != 1 {
		t.Errorf("Quantile(0.01) = %v, want 1", got)
	}
	// Quantiles beyond the in-range mass must clamp to the top edge, not
	// run off the counts slice.
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("Quantile(%v) = %v, want top edge 4", q, got)
		}
	}
	if h.Overflow() != 99 || h.Total() != 100 {
		t.Errorf("overflow=%d total=%d, want 99/100", h.Overflow(), h.Total())
	}
}

func TestQuantileUnderflowCountsTowardRank(t *testing.T) {
	h := NewHistogram(10, 1, 5) // covers [10, 15)
	for i := 0; i < 9; i++ {
		h.Add(0) // underflow
	}
	h.Add(12.5) // bin 2
	// The single in-range sample is the global maximum, so the median is
	// already covered by underflow: the first bin edge satisfies it.
	if got := h.Quantile(0.5); got != 11 {
		t.Errorf("Quantile(0.5) = %v, want 11", got)
	}
	if got := h.Quantile(1); got != 13 {
		t.Errorf("Quantile(1) = %v, want 13 (bin of the max sample)", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	// Percentile must sort internally: feed it a reversed and a shuffled
	// ordering of the same data and demand identical answers.
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	reversed := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	shuffled := []float64{7, 1, 9, 3, 10, 5, 2, 8, 6, 4}
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		want := Percentile(sorted, p)
		if got := Percentile(reversed, p); got != want {
			t.Errorf("P%v reversed = %v, sorted = %v", p, got, want)
		}
		if got := Percentile(shuffled, p); got != want {
			t.Errorf("P%v shuffled = %v, sorted = %v", p, got, want)
		}
	}
	// And the caller's slice must come back untouched.
	if shuffled[0] != 7 || shuffled[9] != 4 {
		t.Errorf("Percentile mutated its input: %v", shuffled)
	}
}

func TestPercentileSingleSampleAndNaN(t *testing.T) {
	if got := Percentile([]float64{42}, 73.2); got != 42 {
		t.Errorf("single-sample percentile = %v, want 42", got)
	}
	if got := Percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("empty percentile = %v, want NaN", got)
	}
}

// TestSummaryLargeNStability checks Welford's accumulator against the exact
// closed form on a large constant-plus-ramp stream where naive sum-of-squares
// accumulation loses precision: a million samples at mean 1e9 with unit-scale
// spread.
func TestSummaryLargeNStability(t *testing.T) {
	const n = 1_000_000
	s := NewSummary()
	for i := 0; i < n; i++ {
		// Values 1e9 + (i mod 2): mean 1e9+0.5, variance 0.25 exactly.
		s.Add(1e9 + float64(i%2))
	}
	if s.n != n {
		t.Fatalf("N = %d, want %d", s.n, n)
	}
	if got, want := s.Mean(), 1e9+0.5; math.Abs(got-want) > 1e-3 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := s.Variance(), 0.25; math.Abs(got-want) > 1e-6 {
		t.Errorf("Variance = %v, want %v (Welford should hold this exactly)", got, want)
	}
	if s.Min() != 1e9 || s.Max() != 1e9+1 {
		t.Errorf("min/max = %v/%v, want 1e9/1e9+1", s.Min(), s.Max())
	}
}
