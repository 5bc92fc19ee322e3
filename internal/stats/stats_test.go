package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("N = %d, want 8", s.n)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f, want 2/9", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %f, want 5", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Fatalf("std = %f, want 2", s.Std())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSummary()
		var fs []float64
		for _, v := range raw {
			f := float64(v) / 7.0
			fs = append(fs, f)
			s.Add(f)
		}
		var sum, ss float64
		for _, f := range fs {
			sum += f
		}
		mean := sum / float64(len(fs))
		for _, f := range fs {
			ss += (f - mean) * (f - mean)
		}
		return math.Abs(s.Mean()-mean) < 1e-9 &&
			math.Abs(s.Std()-math.Sqrt(ss/float64(len(fs)))) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSummary()
	s.Add(209)
	s.Add(228)
	got := s.String()
	if !strings.Contains(got, "min=209") || !strings.Contains(got, "max=228") {
		t.Fatalf("unexpected format: %q", got)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 5, 10) // [0,50) in 5-wide bins
	h.Add(0)
	h.Add(4.999)
	h.Add(5)
	h.Add(49.9)
	h.Add(-1)  // underflow
	h.Add(50)  // overflow
	h.Add(100) // overflow
	if h.Count(0) != 2 {
		t.Fatalf("bin0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Fatalf("bin1 = %d, want 1", h.Count(1))
	}
	if h.Count(9) != 1 {
		t.Fatalf("bin9 = %d, want 1", h.Count(9))
	}
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Underflow(), h.Overflow())
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d, want 7", h.Total())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1000, 5, 100) // like Fig 17: 5us bins
	for i := 0; i < 99; i++ {
		h.Add(1100) // bin starting 1100
	}
	h.Add(1290)
	q99 := h.Quantile(0.99)
	if q99 != 1105 {
		t.Fatalf("q99 = %f, want 1105 (upper edge of the 1100 bin)", q99)
	}
	q100 := h.Quantile(1.0)
	if q100 != 1295 {
		t.Fatalf("q100 = %f, want 1295", q100)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(0, 1, 50)
	for i := 0; i < 500; i++ {
		h.Add(float64(i % 50))
	}
	prev := math.Inf(-1)
	for q := 0.05; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%f: %f < %f", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(12)
	h.Add(13)
	h.Add(25)
	out := h.Render(20, "%6.0f")
	if !strings.Contains(out, "10") || !strings.Contains(out, "#") {
		t.Fatalf("render output unexpected: %q", out)
	}
	empty := NewHistogram(0, 1, 3)
	if !strings.Contains(empty.Render(10, "%f"), "empty") {
		t.Fatal("empty histogram should say so")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on zero width")
		}
	}()
	NewHistogram(0, 0, 10)
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := Percentile(s, 100); got != 10 {
		t.Fatalf("p100 = %f", got)
	}
	if got := Percentile(s, 50); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("p50 = %f, want 5.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 50)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}
