package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2500 * Picosecond, "2500ps"},
		{15 * Nanosecond, "15.000ns"},
		{722 * Nanosecond, "722.000ns"},
		{13 * Microsecond, "13.000us"},
		{1300 * Microsecond, "1300.000us"},
		{25 * Millisecond, "25.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Fork(1)
	c2 := r.Fork(2)
	c1again := r.Fork(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Fork with the same id should yield the same stream")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("Fork with different ids should differ (collision extremely unlikely)")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %f, want ~0.5", mean)
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d count %d too far from %d", i, b, n/10)
		}
	}
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		if x < -6 || x > 6 {
			t.Fatalf("normal variate %f outside clipped range", x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean = %f, want ~0", mean)
	}
	if math.Abs(std-1) > 0.02 {
		t.Fatalf("std = %f, want ~1", std)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// bernoulliProbes spans every branch of FirstBernoulli's threshold:
// never, subnormal, rare, common, always, and NaN.
var bernoulliProbes = []float64{-1, 0, math.SmallestNonzeroFloat64, 1e-9, 1e-6, 1e-3, 0.5, 1, 2, math.NaN()}

// FirstBernoulli must hit the same trials as a loop of Float64() < p and
// leave the stream at the same cursor.
func TestFirstBernoulliMatchesLoop(t *testing.T) {
	for _, p := range bernoulliProbes {
		for seed := uint64(1); seed <= 20; seed++ {
			for _, n := range []int{0, 1, 7, 2560} {
				loop := NewRNG(seed)
				var want []int
				for i := 0; i < n; i++ {
					if loop.Float64() < p {
						want = append(want, i)
					}
				}
				r := NewRNG(seed)
				var got []int
				for i := r.FirstBernoulli(n, p); i < n; i += 1 + r.FirstBernoulli(n-i-1, p) {
					got = append(got, i)
				}
				if len(got) != len(want) || r.State() != loop.State() {
					t.Fatalf("p=%g seed %d n %d: hits %v, loop %v; state %#x, loop %#x", p, seed, n, got, want, r.State(), loop.State())
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("p=%g seed %d n %d: hits %v, loop %v", p, seed, n, got, want)
					}
				}
			}
		}
	}
}

// The integer threshold agrees with Float64() < p on both sides of
// every boundary, including probabilities that are exact multiples of
// 2^-53 and their neighbours.
func TestBernoulliBelowExact(t *testing.T) {
	probes := append([]float64{}, bernoulliProbes...)
	for _, k := range []float64{1, 2, 3, 1 << 20, 1<<53 - 1} {
		p := k / (1 << 53)
		probes = append(probes, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
	}
	for _, p := range probes {
		below := bernoulliBelow(p)
		for _, u := range []uint64{0, 1, 2, below - 1, below, below + 1, 1<<53 - 1} {
			if u >= 1<<53 {
				continue
			}
			if want, got := float64(u)/(1<<53) < p, u < below; got != want {
				t.Errorf("p=%g u=%d: integer test %v, Float64 test %v", p, u, got, want)
			}
		}
	}
}
