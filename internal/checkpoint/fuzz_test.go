package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	f.Add(Encode(denseSnapshot()))
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

// readCorpus returns the checked-in seed corpus of FuzzCheckpointDecode,
// keyed by file name.
func readCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
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
		seeds[e.Name()] = []byte(blob)
	}
	return seeds
}

// TestCheckpointFuzzCorpus keeps the checked-in seed corpus meaningful:
// the "valid" seed is a blob Decode accepts and re-encodes exactly, and
// every other seed (truncations and bit flips of it) is rejected with
// ErrCorrupt. A format change that invalidates the seed fails here; the
// corpus must then be regenerated from a current blob.
func TestCheckpointFuzzCorpus(t *testing.T) {
	seeds := readCorpus(t)
	if len(seeds) < 2 {
		t.Fatalf("%d corpus entries, want the valid blob and its variants", len(seeds))
	}
	for name, blob := range seeds {
		s, err := Decode(blob)
		switch {
		case name == "valid" && err != nil:
			t.Errorf("valid seed rejected: %v", err)
		case name == "valid" && !bytes.Equal(Encode(s), blob):
			t.Error("valid seed does not re-encode to itself")
		case name != "valid" && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// Decode allocates at most decodeAllocPerByte bytes per blob byte, plus
// decodeAllocFixed for the snapshot and error values every call may
// make. The largest ratio is a count of empty mailboxes or queues: 4
// bytes on the wire, a 24-byte slice header in memory.
const (
	decodeAllocPerByte = 8
	decodeAllocFixed   = 1 << 10
)

// TestDecodeAllocationBounded: what Decode allocates is bounded by the
// size of its input, on every corpus seed, on valid blobs, and on crafted
// blobs that claim, for each collection and chip mask in turn, the
// largest count the decoder lets through in front of a run of zero
// bytes. Each element then
// decodes from zeros, so most of these blobs fail after the allocation
// their count drove.
func TestDecodeAllocationBounded(t *testing.T) {
	blobs := readCorpus(t)
	blobs["encoded"] = Encode(testSnapshot())
	blobs["dense"] = Encode(denseSnapshot())
	// Maps grow as their entries decode, so their allocation shows on an
	// accepted blob with many short names.
	many := testSnapshot()
	for i := 0; i < 20000; i++ {
		k := strconv.Itoa(100000 + i)
		many.Obs.Counters[k] = int64(i)
		many.Obs.Series[k] = obs.SeriesState{Samples: []obs.SamplePoint{{Cycle: int64(i)}}}
	}
	blobs["many-names"] = Encode(many)

	const room = 1 << 18 // zero bytes after each crafted count
	le := binary.LittleEndian
	crafted := func(prefix []byte, n uint32) []byte {
		p := le.AppendUint32(slices.Clone(prefix), n)
		return frame(append(p, make([]byte, room)...))
	}
	// maxCount is the largest count Decode accepts after prefix: counts
	// above it fail the count check, so a binary search finds it.
	maxCount := func(prefix []byte) uint32 {
		lo, hi := uint32(0), uint32(room)
		for lo < hi {
			mid := hi - (hi-lo)/2
			if _, err := Decode(crafted(prefix, mid)); err != nil && strings.Contains(err.Error(), "implausible element count") {
				hi = mid - 1
			} else {
				lo = mid
			}
		}
		return lo
	}
	empty := func(n int) []byte { return make([]byte, 4*n) } // n empty collections
	cluster := make([]byte, clusterFixed)
	obsOn := append(append(slices.Clone(cluster), empty(5)...), 1) // every cluster collection empty, obs present
	hist := le.AppendUint32(nil, 1)
	hist = append(hist, 'h')
	hist = le.AppendUint64(hist, 0)
	hist = le.AppendUint64(hist, math.Float64bits(1))
	hist = append(hist, make([]byte, 16)...)
	series := le.AppendUint32(nil, 1)
	series = append(series, 's', 0, 0, 0, 0, 0, 0, 0, 0)
	for _, c := range []struct {
		name   string
		prefix []byte
	}{
		{"chips", cluster},
		{"mailboxes", append(slices.Clone(cluster), empty(1)...)},
		{"queues", append(append(slices.Clone(cluster), empty(1)...), 1, 0, 0, 0)},
		{"envelopes", append(append(slices.Clone(cluster), empty(1)...), 1, 0, 0, 0, 1, 0, 0, 0)},
		{"links", append(slices.Clone(cluster), empty(2)...)},
		{"link-mbes", append(slices.Clone(cluster), empty(3)...)},
		{"repaired", append(slices.Clone(cluster), empty(4)...)},
		{"counters", obsOn},
		{"gauges", append(slices.Clone(obsOn), empty(1)...)},
		{"histograms", append(slices.Clone(obsOn), empty(2)...)},
		{"bins", append(append(slices.Clone(obsOn), empty(2)...), append([]byte{1, 0, 0, 0}, hist...)...)},
		{"events", append(slices.Clone(obsOn), empty(3)...)},
		{"processes", append(slices.Clone(obsOn), empty(4)...)},
		{"threads", append(slices.Clone(obsOn), empty(5)...)},
		{"series", append(slices.Clone(obsOn), empty(8)...)}, // six tables, then the 8-byte cadence
		{"samples", append(append(slices.Clone(obsOn), empty(8)...), append([]byte{1, 0, 0, 0}, series...)...)},
	} {
		n := maxCount(c.prefix)
		if n == 0 {
			t.Errorf("%s: no count accepted; the crafted prefix does not reach the collection", c.name)
		}
		blobs["max-"+c.name] = crafted(c.prefix, n)
	}
	// A chip's masks count its registers and rows: full masks in front of
	// the zero run, and in front of too few bytes for one entry.
	for _, r := range []int{room, 300} {
		for name, blob := range maskBlobs(r) {
			blobs[name] = blob
		}
	}

	for name, blob := range blobs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(blob)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := uint64(decodeAllocPerByte*len(blob) + decodeAllocFixed)
		if got > limit {
			t.Errorf("%s: Decode of %d bytes allocated %d (limit %d; err %v)", name, len(blob), got, limit, err)
		}
		t.Logf("%s: %d bytes, allocated %d (%.2f per byte), err %v", name, len(blob), got, float64(got)/float64(len(blob)), err)
	}
}
