package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/isa"
	"repro/internal/topo"
)

// programsSHA is a SHA-256 over each program's isa.EncodeProgram bytes in
// order.
func programsSHA(progs ...*isa.Program) string {
	h := sha256.New()
	for _, p := range progs {
		h.Write(isa.EncodeProgram(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProgramsPinned pins the program bytes of the functional workloads'
// static schedulers: Cholesky at several sizes, the encoder layer at
// several shapes, and the 8-chip all-reduce exchange. Any change to how
// these programs are padded or which link each SEND and RECV names moves
// a hash.
func TestProgramsPinned(t *testing.T) {
	for _, tc := range []struct {
		p   int
		sha string
	}{
		{1, "3277e4b6f4a2d5c4ac13684fab9dff2fdde1f9c5f5926354f5c0c8717998a936"},
		{2, "1a27308b1ad3e2dd80d27a3afa65bced70d4da7b21f3efb8ad4311216fc2fe1b"},
		{5, "1302662e870bfd27183e71e30bab653277a6f3c28489a7316e2b23a103672530"},
		{16, "00fd687d9d4342f63f651403e2e0d6653cf8a8f8045353e71d79e803e3b5d5f9"},
		{33, "da14e06b62e043af2c94a6b186b9e109caf12527174a45d12cf235d8beb2b597"},
		{80, "b1fc63bec13876db7f689313c97f6668788f5af76c8114c040e3c60e848bf883"},
	} {
		prog, err := BuildCholeskyProgram(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := programsSHA(prog); got != tc.sha {
			t.Errorf("Cholesky p=%d: program SHA-256 = %s, want %s", tc.p, got, tc.sha)
		}
	}
	// The encoder program depends only on the layer's shape, not on
	// its weights.
	for _, tc := range []struct {
		seq, hidden, ffn int
		sha              string
	}{
		{1, 1, 1, "b03c22e952b643f5093b6bda4756a50e3f884ec1028da4053ef399611271e3ca"},
		{4, 8, 16, "6d177442315f95eee618bcadd289b9b03635d2c514f67591c550174ef0fdeb31"},
		{3, 5, 7, "ec6d877161e87646a40d6dc0bb547c4efbb4a812868f253cff3e887d4b830794"},
		{8, 1, 64, "01ba709311caf58b64c53031f21734330407e0f376b43ba61b21110ae9bc2005"},
		{8, 16, 64, "5278f009a98170e4470276da0633995d009fcbd30d23e645f88d29e6a3b8ad2d"},
	} {
		zeros := func(rows, cols int) [][]float32 {
			m := make([][]float32, rows)
			for r := range m {
				m[r] = make([]float32, cols)
			}
			return m
		}
		h := tc.hidden
		prog, err := BuildEncoderProgram(&EncoderParams{
			Seq: tc.seq, Hidden: h, FFN: tc.ffn,
			Wq: zeros(h, h), Wk: zeros(h, h), Wv: zeros(h, h),
			W1: zeros(h, tc.ffn), W2: zeros(tc.ffn, h),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := programsSHA(prog); got != tc.sha {
			t.Errorf("encoder %dx%dx%d: program SHA-256 = %s, want %s", tc.seq, h, tc.ffn, got, tc.sha)
		}
	}
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := allReducePrograms(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := programsSHA(progs...), "80e6588fa2591f235c1c5d3e099ba606e439a19dc8807f6a64aeee1f410a3543"; got != want {
		t.Errorf("all-reduce: programs SHA-256 = %s, want %s", got, want)
	}
}
