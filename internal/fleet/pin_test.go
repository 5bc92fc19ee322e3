package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// stressedFullStack is StressedScenario over 14 days with draining,
// adaptive checkpoint cadence and priority shedding all armed: the
// fleet-stressed workload of the repository benchmark (bench/tspbench).
func stressedFullStack(seed uint64) Config {
	cfg, drain, adaptive, shed := StressedScenario()
	cfg.HorizonDays, cfg.Seed = 14, seed
	cfg.Policy.Drain, cfg.Fault.Adaptive, cfg.Policy.Shed = drain, adaptive, shed
	return cfg
}

// TestStressedReportPinned pins the SHA-256 of SLOReport.JSON for the
// full-stack stressed fleet at seeds 1–3. Any change to the arrival
// draws, the routing order, the shed bounds or the indicator feed moves
// a hash.
func TestStressedReportPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		sha  string
	}{
		{1, "dc5370b34a51cf9273c17a1a27ca363995681db5dd7be63f4c187745c8fed12e"},
		{2, "7b14516a7c390de505c530789cf857889abe0561f0045b28f285f243f10d021d"},
		{3, "6eeb77fb7692ae238db606d8533eb6b316fbd78fa076e5352d21946475e82bba"},
	} {
		rep, err := Run(stressedFullStack(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("seed %d: SLOReport JSON SHA-256 = %s, want %s", tc.seed, got, tc.sha)
		}
	}
}
