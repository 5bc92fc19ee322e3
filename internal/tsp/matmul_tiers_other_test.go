//go:build !amd64

package tsp

func matmulTiers() []matmulTier { return []matmulTier{{"generic", matmulGeneric}} }

func liveMatMulTier() string { return "generic" }
