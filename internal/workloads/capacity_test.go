package workloads

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/topo"
)

func TestFitSmallModel(t *testing.T) {
	// BERT-Large: 340M params at int8 fits a handful of TSPs.
	fit, err := FitModel(340_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.TSPsNeeded < 2 || fit.TSPsNeeded > 4 {
		t.Fatalf("BERT-Large needs %d TSPs, want 2-4", fit.TSPsNeeded)
	}
	if !fit.Deployable {
		t.Fatal("BERT-Large must deploy")
	}
}

func TestFitGPT3Scale(t *testing.T) {
	// The intro's motivation: 100s-of-billions of parameters. GPT-3
	// (175B) at int8 needs ~1000 TSPs; at fp16 ~2000 — both inside the
	// 10,440-TSP maximum system.
	int8Fit, err := FitModel(175_000_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int8Fit.TSPsNeeded < 800 || int8Fit.TSPsNeeded > 1200 {
		t.Fatalf("GPT-3 int8 needs %d TSPs", int8Fit.TSPsNeeded)
	}
	if !int8Fit.Deployable {
		t.Fatal("GPT-3 int8 must fit the max system")
	}
	fp16Fit, err := FitModel(175_000_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fp16Fit.TSPsNeeded <= int8Fit.TSPsNeeded {
		t.Fatal("fp16 must need more TSPs")
	}
	if !fp16Fit.Deployable {
		t.Fatal("GPT-3 fp16 must still fit")
	}
	if fp16Fit.SystemFraction <= 0 || fp16Fit.SystemFraction >= 1 {
		t.Fatalf("system fraction %f", fp16Fit.SystemFraction)
	}
}

func TestFitTooLarge(t *testing.T) {
	// A 10-trillion-parameter fp16 model exceeds even 2.2 TB.
	fit, err := FitModel(10_000_000_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Deployable {
		t.Fatal("10T fp16 params cannot fit 10,440 TSPs")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := FitModel(0, 1); err == nil {
		t.Fatal("zero params should error")
	}
	if _, err := FitModel(100, 0); err == nil {
		t.Fatal("zero bytes/param should error")
	}
}

func TestGlobalMemoryMatchesAbstract(t *testing.T) {
	// Abstract: 10,440 TSPs → more than 2 TB.
	if tb := float64(topo.MaxTSPs*mem.ChipBytes) / 1e12; tb < 2.0 || tb > 2.5 {
		t.Fatalf("max system memory = %.2f TB", tb)
	}
	// §2.2: 264 TSPs → ~56 GiB.
	if gib := float64(264*mem.ChipBytes) / (1 << 30); gib < 56 || gib > 57 {
		t.Fatalf("264-TSP memory = %.2f GiB", gib)
	}
}

func TestBERTBaseSingleTSPEstimate(t *testing.T) {
	res, err := BERTBaseSingleTSP(5000, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// §5.4: estimate within 2% of measurement on a single TSP too.
	if res.MeanErrorFrac > 0.02 {
		t.Fatalf("BERT-Base estimate error %.3f", res.MeanErrorFrac)
	}
	// BERT-Base is lighter than BERT-Large: latency well under it.
	large, err := Fig17(1000, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimateUS >= large.EstimateUS {
		t.Fatalf("BERT-Base (%.0f µs) should be faster than BERT-Large (%.0f µs)",
			res.EstimateUS, large.EstimateUS)
	}
	if res.Hist.Overflow() != 0 {
		t.Fatal("histogram clipped")
	}
}
