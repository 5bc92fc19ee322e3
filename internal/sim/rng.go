package sim

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator.
//
// The simulation must be reproducible run-to-run, so every stochastic model
// component (link jitter, clock drift draws, injected bit errors) owns a
// private RNG stream seeded from a stable identifier. SplitMix64 is tiny,
// fast, has a full 2^64 period per stream, and — unlike math/rand's global
// source — cannot be perturbed by unrelated code.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child stream from this one, keyed by id. The
// parent's state is not advanced, so forking is order-independent.
func (r *RNG) Fork(id uint64) *RNG {
	mixed := r.state ^ (id+gamma)*0xbf58476d1ce4e5b9
	return &RNG{state: mixed}
}

// State returns the stream's cursor. Together with SetState it lets a
// checkpoint capture and restore a stream mid-run: a restored RNG produces
// exactly the draws the original would have produced from this point.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or advances) the stream to a previously captured
// cursor.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// mix64 is SplitMix64's output function of a stream state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal variate using the sum
// of 12 uniforms (Irwin–Hall). The tails are clipped at ±6σ, which is exactly
// what we want for link-jitter models: real serdes jitter is bounded, and
// unbounded Gaussian tails would (very rarely) break schedule-legality
// assertions that hardware guard-bands make impossible.
func (r *RNG) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// FirstBernoulli makes up to n Bernoulli(p) draws and returns the index
// of the first success, or n when none succeeds. It consumes exactly the
// draws a loop of Float64() < p tests would: one per trial, up to and
// including the first success. p <= 0 and NaN never succeed, so they skip
// the n draws in O(1).
func (r *RNG) FirstBernoulli(n int, p float64) int {
	if n <= 0 {
		return n
	}
	below := bernoulliBelow(p)
	if below == 0 {
		r.state += uint64(n) * gamma
		return n
	}
	i, s := scanBernoulli(r.state, n, below)
	r.state = s
	return i
}

// gamma is SplitMix64's stream increment: draw i of a stream at state s
// is mix64(s + (i+1)·gamma), so a scan can compute draws in any order.
const gamma = 0x9e3779b97f4a7c15

// scanBernoulliGeneric is the scan behind FirstBernoulli, one draw at a
// time, for n > 0 and below in [1, 2^53]. It returns the index of the
// first draw whose top 53 bits are under below, or n, and the stream
// state after that draw. It is the only tier off amd64, and the tail of
// the vector one.
func scanBernoulliGeneric(s uint64, n int, below uint64) (int, uint64) {
	for i := 0; i < n; i++ {
		s += gamma
		if mix64(s)>>11 < below {
			return i, s
		}
	}
	return n, s
}

// bernoulliBelow returns the integer form of the test Float64() < p:
// Float64 is u/2^53 for u, a draw's top 53 bits, so the test holds
// exactly when u < ceil(p·2^53). p <= 0 or NaN gives 0 (never); p >= 1
// gives 2^53 (always).
func bernoulliBelow(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}
