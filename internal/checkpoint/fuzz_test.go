package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzCheckpointDecode: Decode never panics, fails only with ErrCorrupt,
// and every blob it accepts re-encodes to itself byte for byte — which
// also pins the single-buffer Writer against the decoder. An accepted obs
// section loads into a fresh recorder and exports without a panic. The
// CRC rejects
// nearly every mutated blob before the payload parser runs, so each input
// that carries a blob header is also checked with its payload re-framed
// under a correct length and checksum.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(Encode(testSnapshot()))
	zeroWidth := testSnapshot()
	zeroWidth.Obs.Hists["bad"] = obs.HistState{Counts: []int64{1}}
	f.Add(Encode(zeroWidth))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data)
		if len(data) >= headerLen+crcLen && string(data[:len(magic)]) == magic {
			checkRoundTrip(t, frame(data[headerLen:len(data)-crcLen]))
		}
	})
}

func checkRoundTrip(t *testing.T, blob []byte) {
	s, err := Decode(blob)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		return
	}
	if got := Encode(s); !bytes.Equal(got, blob) {
		t.Fatalf("accepted blob of %d bytes re-encodes to %d different bytes", len(blob), len(got))
	}
	if s.Obs != nil {
		// Decode admits only what a recorder can hold, so a restored
		// recorder exports every dump.
		r := obs.New()
		r.LoadState(s.Obs)
		if err := r.WriteTrace(io.Discard); err != nil {
			t.Fatalf("accepted obs section does not export its trace: %v", err)
		}
		if err := r.WriteMetrics(io.Discard); err != nil {
			t.Fatalf("accepted obs section does not export its metrics: %v", err)
		}
		if err := r.WriteSeries(io.Discard); err != nil {
			t.Fatalf("accepted obs section does not export its series: %v", err)
		}
	}
}

// frame wraps a payload in a current-version header and its checksum.
func frame(payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload)+crcLen)
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[len(magic):], Version)
	binary.LittleEndian.PutUint64(b[len(magic)+4:], uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestCheckpointFuzzCorpus keeps the checked-in seed corpus meaningful:
// the "valid" seed is a blob Decode accepts and re-encodes exactly, and
// every other seed (truncations and bit flips of it) is rejected with
// ErrCorrupt. A format change that invalidates the seed fails here; the
// corpus must then be regenerated from a current blob.
func TestCheckpointFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("%d corpus entries, want the valid blob and its variants", len(entries))
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		q := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		blob, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		s, err := Decode([]byte(blob))
		switch {
		case e.Name() == "valid" && err != nil:
			t.Errorf("valid seed rejected: %v", err)
		case e.Name() == "valid" && !bytes.Equal(Encode(s), []byte(blob)):
			t.Error("valid seed does not re-encode to itself")
		case e.Name() != "valid" && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: want ErrCorrupt, got %v", e.Name(), err)
		}
	}
}
