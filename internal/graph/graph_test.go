package graph

import "testing"

func TestBuildSimpleGraph(t *testing.T) {
	g := New()
	in := g.AddInput("x", 320*10)
	op1, t1 := g.AddOp("matmul0", 0, 1000, []TensorID{in}, 320*5)
	op2, t2 := g.AddOp("matmul1", 1, 2000, []TensorID{t1}, 320*5)
	if g.NumOps() != 2 || len(g.tensors) != 3 {
		t.Fatalf("ops=%d tensors=%d", g.NumOps(), len(g.tensors))
	}
	if g.Op(op1).Output != t1 || g.Op(op2).Output != t2 {
		t.Fatal("output wiring")
	}
	if g.Tensor(t1).Producer != op1 {
		t.Fatal("producer wiring")
	}
	if g.Devices() != 2 {
		t.Fatalf("devices = %d", g.Devices())
	}
}

func TestVectorsRoundUp(t *testing.T) {
	g := New()
	in := g.AddInput("x", 321)
	if g.Tensor(in).Vectors() != 2 {
		t.Fatalf("321 bytes = %d vectors, want 2", g.Tensor(in).Vectors())
	}
	in2 := g.AddInput("y", 320)
	if g.Tensor(in2).Vectors() != 1 {
		t.Fatal("320 bytes should be 1 vector")
	}
}

func TestCommEdgesOnlyCrossDevice(t *testing.T) {
	g := New()
	in := g.AddInput("x", 320)
	_, t1 := g.AddOp("a", 0, 100, []TensorID{in}, 320)
	_, t2 := g.AddOp("b", 0, 100, []TensorID{t1}, 320) // same device: no edge
	_, t3 := g.AddOp("c", 1, 100, []TensorID{t2}, 320) // cross: edge
	g.AddOp("d", 1, 100, []TensorID{t3}, -1)           // same device: no edge
	edges := g.CommEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(edges))
	}
	e := edges[0]
	if e.Src != 0 || e.Dst != 1 || e.Tensor != t2 {
		t.Fatalf("edge = %+v", e)
	}
}

func TestGraphInputsGenerateNoTraffic(t *testing.T) {
	g := New()
	in := g.AddInput("x", 320)
	g.AddOp("a", 3, 100, []TensorID{in}, -1)
	if len(g.CommEdges()) != 0 {
		t.Fatal("graph inputs should not create comm edges")
	}
}

func TestTotalsPerDevice(t *testing.T) {
	g := New()
	in := g.AddInput("x", 320)
	_, t1 := g.AddOp("a", 0, 100, []TensorID{in}, 640)
	_, t2 := g.AddOp("b", 1, 300, []TensorID{t1}, 320)
	g.AddOp("c", 0, 50, []TensorID{t2}, -1)
	var bytes int64
	for _, e := range g.CommEdges() {
		bytes += g.Tensor(e.Tensor).Bytes
	}
	if bytes != 640+320 {
		t.Fatalf("comm bytes = %d", bytes)
	}
}

func TestAddOpValidation(t *testing.T) {
	g := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown input should panic")
			}
		}()
		g.AddOp("bad", 0, 1, []TensorID{99}, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative device should panic")
			}
		}()
		g.AddOp("bad", -1, 1, nil, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative cycles should panic")
			}
		}()
		g.AddOp("bad", 0, -5, nil, -1)
	}()
}

func TestNoOutputOp(t *testing.T) {
	g := New()
	op, out := g.AddOp("sink", 0, 10, nil, -1)
	if out != -1 {
		t.Fatal("sink should have no output")
	}
	if g.Op(op).Output != -1 {
		t.Fatal("stored output should be -1")
	}
}
