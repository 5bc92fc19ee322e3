package sim

import "testing"

type bernoulliTier struct {
	name string
	scan func(s uint64, n int, below uint64) (int, uint64)
}

// firstBernoulliOn is FirstBernoulli on the given scan tier.
func firstBernoulliOn(tier bernoulliTier, s uint64, n int, p float64) (int, uint64) {
	if below := bernoulliBelow(p); n > 0 && below > 0 {
		return tier.scan(s, n, below)
	}
	r := RNG{state: s}
	return r.FirstBernoulli(n, p), r.state
}

// firstBernoulliLoop is the oracle: the index of the first of n
// Float64() < p tests that holds, or n, and the cursor after it.
func firstBernoulliLoop(s uint64, n int, p float64) (int, uint64) {
	r := RNG{state: s}
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			return i, r.state
		}
	}
	return n, r.state
}

// unmix64 inverts mix64: each xorshift and each odd multiplier is a
// bijection of the 64-bit words.
func unmix64(z uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := uint(0); i < 64; i += k {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c // Newton's iteration doubles the correct low bits each step.
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

func TestUnmix64(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		z := r.Uint64()
		if got := mix64(unmix64(z)); got != z {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", z, got)
		}
	}
}

// Every scan tier the host runs must find the same first success and
// leave the same cursor as the loop of Float64() < p tests. A state whose
// draw k is 0, a success at any p > 0, puts a hit at lane 0 (k = 0, 16)
// or lane 15 (k = 15, 31) of a 16-draw vector block, or in the scalar
// tail past the last multiple of 16 (k = n-1); a random state hits
// nowhere at rare p. Draw k set to the largest success and to the
// smallest failure at p checks the threshold's edge.
func TestFirstBernoulliTiers(t *testing.T) {
	at := func(k int, draw uint64) uint64 { return unmix64(draw) - uint64(k+1)*gamma }
	for _, n := range []int{0, 1, 15, 16, 17, 2560, 4099} {
		var ks []int
		for _, k := range []int{0, 15, 16, 31, n - 1} {
			if k >= 0 && k < n {
				ks = append(ks, k)
			}
		}
		states := []uint64{NewRNG(uint64(n)).Uint64()}
		if i, _ := firstBernoulliLoop(states[0], n, 1e-9); i != n {
			t.Fatalf("n %d: random state hits at %d", n, i)
		}
		for _, k := range ks {
			states = append(states, at(k, 0))
			if i, _ := firstBernoulliLoop(at(k, 0), n, 1e-9); i != k {
				t.Fatalf("n %d: state for a hit at %d hits at %d", n, k, i)
			}
		}
		for _, p := range bernoulliProbes {
			cases := append([]uint64(nil), states...)
			if below := bernoulliBelow(p); below > 0 && below < 1<<53 {
				for _, k := range ks {
					cases = append(cases, at(k, below<<11-1), at(k, below<<11))
				}
			}
			for _, s := range cases {
				wantI, wantS := firstBernoulliLoop(s, n, p)
				for _, tier := range bernoulliTiers() {
					gotI, gotS := firstBernoulliOn(tier, s, n, p)
					if gotI != wantI || gotS != wantS {
						t.Errorf("%s, n %d, state %#x, p=%g: index %d cursor %#x; loop %d, %#x", tier.name, n, s, p, gotI, gotS, wantI, wantS)
					}
				}
			}
		}
	}
}

// FuzzFirstBernoulli compares every scan tier with the loop of
// Float64() < p tests from any state, trial count and probability.
func FuzzFirstBernoulli(f *testing.F) {
	f.Fuzz(func(t *testing.T, s uint64, n uint16, p float64) {
		wantI, wantS := firstBernoulliLoop(s, int(n), p)
		for _, tier := range bernoulliTiers() {
			gotI, gotS := firstBernoulliOn(tier, s, int(n), p)
			if gotI != wantI || gotS != wantS {
				t.Fatalf("%s, state %#x, n %d, p=%g: index %d cursor %#x; loop %d, %#x", tier.name, s, n, p, gotI, gotS, wantI, wantS)
			}
		}
	})
}

var bernoulliSink uint64

// BenchmarkFirstBernoulliFrame times one c2c frame's error scan, 2,560
// draws at BER 1e-6, on each scan tier.
func BenchmarkFirstBernoulliFrame(b *testing.B) {
	below := bernoulliBelow(1e-6)
	for _, tier := range bernoulliTiers() {
		b.Run(tier.name, func(b *testing.B) {
			s := uint64(1)
			for i := 0; i < b.N; i++ {
				_, s = tier.scan(s, 2560, below)
			}
			bernoulliSink = s
		})
	}
}
