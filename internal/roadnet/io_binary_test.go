package roadnet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/geo"
)

// buildShaped builds a small network exercising every serialized
// field: interior via points, mixed classes, an overridden speed.
func buildShaped(t testing.TB) *Network {
	t.Helper()
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(300, 0))
	n2 := b.AddNode(geo.Pt(300, 300))
	if _, _, err := b.AddTwoWay(n0, n1, Arterial, geo.Pt(100, 25), geo.Pt(200, -25)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n1, n2, Highway, geo.Pt(320, 150)); err != nil {
		t.Fatal(err)
	}
	sid, err := b.AddSegment(n2, n0, Local)
	if err != nil {
		t.Fatal(err)
	}
	b.segments[sid].Speed = 3.5
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func sameNetwork(t *testing.T, a, b *Network) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumSegments() != b.NumSegments() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d segments",
			a.NumNodes(), b.NumNodes(), a.NumSegments(), b.NumSegments())
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)).P != b.Node(NodeID(i)).P {
			t.Fatalf("node %d position mismatch", i)
		}
	}
	for i := 0; i < a.NumSegments(); i++ {
		sa, sb := a.Segment(SegmentID(i)), b.Segment(SegmentID(i))
		if sa.From != sb.From || sa.To != sb.To || sa.Class != sb.Class ||
			sa.Speed != sb.Speed || sa.Length != sb.Length {
			t.Fatalf("segment %d fields mismatch: %+v vs %+v", i, sa, sb)
		}
		if len(sa.Shape) != len(sb.Shape) {
			t.Fatalf("segment %d shape length mismatch", i)
		}
		for j := range sa.Shape {
			if sa.Shape[j] != sb.Shape[j] {
				t.Fatalf("segment %d shape point %d mismatch", i, j)
			}
		}
	}
	for v := 0; v < a.NumNodes(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(ao) != len(bo) {
			t.Fatalf("node %d out-degree mismatch", v)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("node %d adjacency mismatch: %v vs %v", v, ao, bo)
			}
		}
	}
	if a.Bounds() != b.Bounds() {
		t.Fatalf("bounds mismatch: %v vs %v", a.Bounds(), b.Bounds())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, n := range map[string]*Network{
		"shaped":   buildShaped(t),
		"lattice":  buildGrid(t, 5, 4),
		"jittered": buildJittered(t, 7, 7, 0.2, 21),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n2, h2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h2 != nil {
			t.Fatalf("%s: hierarchy from a file written without one", name)
		}
		sameNetwork(t, n, n2)
	}
}

func TestBinaryRoundTripWithHierarchy(t *testing.T) {
	n := buildJittered(t, 9, 9, 0.2, 31)
	h := BuildHierarchy(n)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, h); err != nil {
		t.Fatal(err)
	}
	n2, h2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == nil {
		t.Fatal("CH section lost in round trip")
	}
	sameNetwork(t, n, n2)
	if h2.NumShortcuts() != h.NumShortcuts() {
		t.Fatalf("shortcut count %d != %d", h2.NumShortcuts(), h.NumShortcuts())
	}
	// The loaded network + hierarchy must route byte-identically to a
	// flat Dijkstra router over the loaded network.
	flat := NewRouter(n2)
	ch := NewRouter(n2, WithHierarchy(h2))
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		a := NodeID(rng.Intn(n2.NumNodes()))
		b := NodeID(rng.Intn(n2.NumNodes()))
		assertSamePair(t, flat, ch, a, b)
	}
}

func TestBinaryMatchesJSONRoundTrip(t *testing.T) {
	n := buildShaped(t)
	var jbuf, bbuf bytes.Buffer
	if err := Write(&jbuf, n); err != nil {
		t.Fatal(err)
	}
	nj, err := Read(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, n, nil); err != nil {
		t.Fatal(err)
	}
	nb, _, err := ReadBinary(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, nj, nb)
}

func TestBinaryRejectsCorruption(t *testing.T) {
	n := buildGrid(t, 4, 4)
	h := BuildHierarchy(n)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, h); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, _, err := ReadBinary(strings.NewReader("not a network")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := ReadBinary(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	for _, off := range []int{4, 20, len(good) / 2, len(good) - 8} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		if _, _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	extra := append(append([]byte(nil), good...), 0, 0, 0, 0)
	if _, _, err := ReadBinary(bytes.NewReader(extra)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestWriteBinaryRejectsForeignHierarchy(t *testing.T) {
	n1 := buildGrid(t, 4, 4)
	n2 := buildGrid(t, 4, 4)
	h := BuildHierarchy(n1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n2, h); err == nil {
		t.Error("hierarchy over a different network accepted")
	}
}

// withCRC returns payload followed by its CRC-32 tail: a file the
// decoder's checksum accepts, whatever the payload says.
func withCRC(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// lnetHeader returns a header-only payload announcing the given counts.
func lnetHeader(flags uint32, nodes, segs, via uint64) []byte {
	var w binWriter
	w.buf = append(w.buf, lnetMagic...)
	w.u32(lnetVersion)
	w.u32(flags)
	w.u64(nodes)
	w.u64(segs)
	w.u64(via)
	return w.buf
}

// Header counts are checked against the bytes that follow them: a
// 40-byte file with a valid checksum once asked make for ~51 GB.
func TestBinaryRejectsOversizedCounts(t *testing.T) {
	for _, c := range [][3]uint64{
		{1 << 30, 1 << 30, 0},
		{1, 1 << 31, 0},
		{1, 1, 1 << 31},
		{math.MaxUint64 / 8, 1, 0},
	} {
		if _, _, err := ReadBinary(bytes.NewReader(withCRC(lnetHeader(0, c[0], c[1], c[2])))); err == nil {
			t.Errorf("header %v with no records accepted", c)
		}
	}
	// Out-of-order via offsets and non-finite coordinates are rejected,
	// not sliced or indexed.
	n := buildShaped(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()[:buf.Len()-4]
	viaOff := len(lnetMagic) + 8 + 24 + n.NumNodes()*lnetNodeSize + n.NumSegments()*lnetSegmentSize
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[viaOff+4:], 1000) // segment 0 ends past the via points
	if _, _, err := ReadBinary(bytes.NewReader(withCRC(bad))); err == nil {
		t.Error("via offset past the via points accepted")
	}
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[len(lnetMagic)+8+24:], math.Float64bits(math.NaN()))
	if _, _, err := ReadBinary(bytes.NewReader(withCRC(bad))); err == nil {
		t.Error("NaN coordinate accepted")
	}
}

// FuzzReadBinary feeds arbitrary payloads to the LNET decoder with the
// checksum refit, so mutations reach the decoder instead of stopping at
// the CRC. Property: an error, never a panic; memory within a fixed
// multiple of the input; and whatever decodes re-encodes to the same
// bytes.
func FuzzReadBinary(f *testing.F) {
	for _, withH := range []bool{false, true} {
		n := buildShaped(f)
		var h *Hierarchy
		if withH {
			h = BuildHierarchy(n)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n, h); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[:buf.Len()-4])
	}
	f.Add(lnetHeader(0, 1<<30, 1<<30, 0))
	f.Add(lnetHeader(lnetFlagCH, 2, 1, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := withCRC(payload)
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		net, h, err := ReadBinary(bytes.NewReader(data))
		metrics.Read(allocated)
		if got, limit := allocated[0].Value.Uint64()-before, uint64(1<<20+1024*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, net, h); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decoded network re-encodes to different bytes")
		}
	})
}
