//go:build !amd64

package sim

func bernoulliTiers() []bernoulliTier { return []bernoulliTier{{"generic", scanBernoulliGeneric}} }
