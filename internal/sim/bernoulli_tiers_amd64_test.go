package sim

// bernoulliTiers lists every FirstBernoulli scan this host can run,
// generic first.
func bernoulliTiers() []bernoulliTier {
	tiers := []bernoulliTier{{"generic", scanBernoulliGeneric}}
	if useAVX512 {
		tiers = append(tiers, bernoulliTier{"avx512", scanBernoulliAVX512})
	}
	return tiers
}
