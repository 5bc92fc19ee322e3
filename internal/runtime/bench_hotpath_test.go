// Micro-benchmark for the fabric's per-hop cost: one deliver (source
// register → in-flight queue slot, via the pre-resolved route table) plus
// one take (queue slot → destination register) per iteration — the
// two-copy envelope handoff the zero-allocation queue work bought.
package runtime

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/tsp"
)

func BenchmarkHotpathDeliverTake(b *testing.B) {
	sys, err := topo.New(topo.Config{Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := New(sys, []*isa.Program{})
	if err != nil {
		b.Fatal(err)
	}
	// Chip 0's link 0 leads to some peer; find the peer's inbound index.
	l := cl.sys.Link(cl.routeIDs[0][0])
	dst := l.To
	inIdx := sys.Port(l.Reverse)
	var payload, out tsp.Vector
	payload[0] = 0xab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.deliver(0, 0, &payload, int64(i))
		if !cl.take(dst, inIdx, int64(i)+int64(route.HopCycles), &out) {
			b.Fatal("take underflow")
		}
	}
}
