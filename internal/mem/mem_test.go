package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometryMatchesPaper(t *testing.T) {
	// Fig 3: 220 MiB per chip.
	if ChipBytes != 220*1024*1024 {
		t.Fatalf("ChipBytes = %d, want 220 MiB (%d)", ChipBytes, 220*1024*1024)
	}
	// §2.2: a 264-TSP system has ~56 GiB of global SRAM.
	gib := float64(264*ChipBytes) / (1 << 30)
	if gib < 56 || gib > 57 {
		t.Fatalf("264-TSP capacity = %.2f GiB, want ~56.7", gib)
	}
	// Abstract: 10,440 TSPs exceed 2 TB of global memory.
	if tb := float64(10440*ChipBytes) / 1e12; tb < 2.0 {
		t.Fatalf("10,440-TSP capacity = %.2f TB, want > 2", tb)
	}
}

func TestAddrLinearRoundTrip(t *testing.T) {
	if err := quick.Check(func(h, s, b, o uint16) bool {
		a := Addr{
			Hemisphere: int(h) % Hemispheres,
			Slice:      int(s) % Slices,
			Bank:       int(b) % Banks,
			Offset:     int(o) % Addresses,
		}
		return AddrOf(a.Linear()) == a
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrLinearDense(t *testing.T) {
	// Linear must be a bijection onto [0, VectorsPerChip).
	last := Addr{Hemisphere: Hemispheres - 1, Slice: Slices - 1, Bank: Banks - 1, Offset: Addresses - 1}
	if last.Linear() != VectorsPerChip-1 {
		t.Fatalf("last linear = %d, want %d", last.Linear(), VectorsPerChip-1)
	}
	if (Addr{}).Linear() != 0 {
		t.Fatal("zero address should be linear 0")
	}
}

func TestAddrValidation(t *testing.T) {
	bad := []Addr{
		{Hemisphere: 2}, {Slice: 44}, {Bank: 2}, {Offset: 4096},
		{Hemisphere: -1}, {Slice: -1}, {Bank: -1}, {Offset: -1},
	}
	for _, a := range bad {
		if a.Valid() {
			t.Errorf("%v should be invalid", a)
		}
	}
	if !(Addr{1, 43, 1, 4095}).Valid() {
		t.Error("max address should be valid")
	}
}

func TestAddrOfOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddrOf(-1) should panic")
		}
	}()
	AddrOf(-1)
}

func TestSRAMReadWrite(t *testing.T) {
	m := NewSRAM()
	a := Addr{Hemisphere: 1, Slice: 20, Bank: 1, Offset: 1234}
	data := make([]byte, VectorBytes)
	for i := range data {
		data[i] = byte(i * 13)
	}
	m.Write(a, data)
	got, ok := m.Read(a)
	if !ok {
		t.Fatal("clean read flagged as poisoned")
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], data[i])
		}
	}
}

func TestSRAMUnwrittenReadsZero(t *testing.T) {
	m := NewSRAM()
	got, ok := m.Read(Addr{Offset: 7})
	if !ok {
		t.Fatal("unwritten read should be ok")
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten vector should be zero")
		}
	}
	if len(m.vecs) != 0 {
		t.Fatal("read must not materialize vectors")
	}
}

func TestSRAMWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short write should panic")
		}
	}()
	NewSRAM().Write(Addr{}, make([]byte, 10))
}

func TestSRAMInvalidAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid read should panic")
		}
	}()
	NewSRAM().Read(Addr{Slice: 99})
}

func TestSECDEDCorrectsAndScrubs(t *testing.T) {
	m := NewSRAM()
	a := Addr{Slice: 3}
	data := make([]byte, VectorBytes)
	data[40] = 0xff
	m.Write(a, data)
	m.FlipBit(a, 40*8+2)
	got, ok := m.Read(a)
	if !ok {
		t.Fatal("SBE must be corrected, not poison")
	}
	if got[40] != 0xff {
		t.Fatalf("byte 40 = %#x, want 0xff", got[40])
	}
	if m.CorrectedSBEs != 1 {
		t.Fatalf("CorrectedSBEs = %d, want 1", m.CorrectedSBEs)
	}
	// Scrubbing means a second read sees a clean word.
	m.Read(a)
	if m.CorrectedSBEs != 1 {
		t.Fatal("second read should not re-correct (scrub failed)")
	}
}

func TestSECDEDDetectsDoubleError(t *testing.T) {
	m := NewSRAM()
	a := Addr{Bank: 1}
	m.Write(a, make([]byte, VectorBytes))
	m.FlipBit(a, 100)
	m.FlipBit(a, 101)
	_, ok := m.Read(a)
	if ok {
		t.Fatal("double-bit error must poison the read")
	}
	if m.DetectedMBEs != 1 {
		t.Fatalf("DetectedMBEs = %d, want 1", m.DetectedMBEs)
	}
}

func TestFlipBitOnUnwrittenVector(t *testing.T) {
	m := NewSRAM()
	a := Addr{Offset: 9}
	m.FlipBit(a, 0)
	got, ok := m.Read(a)
	if !ok {
		t.Fatal("single upset should correct")
	}
	if got[0] != 0 {
		t.Fatal("correction should restore zero")
	}
}
