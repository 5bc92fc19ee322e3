//go:build !amd64

package sim

func scanBernoulli(s uint64, n int, below uint64) (int, uint64) {
	return scanBernoulliGeneric(s, n, below)
}
