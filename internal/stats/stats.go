// Package stats provides the summary statistics and fixed-bin histograms used
// to report reproduction results (for example the Table 2 link-latency
// characterization and the Fig 17 BERT-Large latency histogram).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates min/mean/max/std over a stream of float64 samples using
// Welford's online algorithm, so it is numerically stable over the 100K-sample
// runs the paper reports.
type Summary struct {
	n    int64
	min  float64
	max  float64
	mean float64
	m2   float64
}

// NewSummary returns an empty accumulator.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Min returns the smallest sample (+Inf if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (-Inf if empty).
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the population variance.
func (s *Summary) Variance() float64 {
	if s.n == 0 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary the way the paper's Table 2 rows read.
func (s *Summary) String() string {
	return fmt.Sprintf("min=%.0f mean=%.2f max=%.0f std=%.2f (n=%d)",
		s.min, s.mean, s.max, s.Std(), s.n)
}

// Histogram is a fixed-width-bin histogram over [origin, origin+width*bins).
// Samples outside the range are counted in overflow/underflow.
type Histogram struct {
	origin    float64
	width     float64
	counts    []int64
	underflow int64
	overflow  int64
	total     int64
}

// NewHistogram creates a histogram with the given bin origin, bin width and
// bin count. Width must be positive and bins >= 1.
func NewHistogram(origin, width float64, bins int) *Histogram {
	if width <= 0 || bins < 1 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{origin: origin, width: width, counts: make([]int64, bins)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.total++
	idx := int(math.Floor((x - h.origin) / h.width))
	switch {
	case idx < 0:
		h.underflow++
	case idx >= len(h.counts):
		h.overflow++
	default:
		h.counts[idx]++
	}
}

// SetState overwrites the histogram's contents wholesale — the restore
// half of a checkpoint. counts must match the histogram's bin count; the
// total is recomputed from the parts.
func (h *Histogram) SetState(underflow, overflow int64, counts []int64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("stats: SetState with %d counts for %d bins", len(counts), len(h.counts)))
	}
	copy(h.counts, counts)
	h.underflow = underflow
	h.overflow = overflow
	h.total = underflow + overflow
	for _, c := range counts {
		h.total += c
	}
}

// Total returns the number of samples added.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// BinStart returns the lower edge of bin i.
func (h *Histogram) BinStart(i int) float64 { return h.origin + float64(i)*h.width }

// Width returns the bin width.
func (h *Histogram) Width() float64 { return h.width }

// Overflow returns the count of samples above the histogram range.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Underflow returns the count of samples below the histogram range.
func (h *Histogram) Underflow() int64 { return h.underflow }

// Quantile returns the smallest upper bin edge x such that at least fraction
// q of all samples are <= x. This is how the paper states "99% of inferences
// return in under 1225us".
func (h *Histogram) Quantile(q float64) float64 {
	target := int64(math.Ceil(q * float64(h.total)))
	cum := h.underflow
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return h.BinStart(i) + h.width
		}
	}
	return h.BinStart(len(h.counts)-1) + h.width
}

// Render draws an ASCII bar chart of the non-empty region, one row per bin,
// scaled to maxWidth characters. Useful for the CLI figure regeneration.
func (h *Histogram) Render(maxWidth int, format string) string {
	lo, hi := -1, -1
	var peak int64
	for i, c := range h.counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	if lo < 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		n := int(int64(maxWidth) * h.counts[i] / peak)
		fmt.Fprintf(&b, format+" |%s %d\n", h.BinStart(i), strings.Repeat("#", n), h.counts[i])
	}
	return b.String()
}

// Percentile returns the p-th percentile (0..100) of the sample slice using
// linear interpolation. The slice is copied, so the caller's data is intact.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
