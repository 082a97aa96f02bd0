package checkpoint

import (
	"bytes"
	"reflect"
	"testing"

	"hpfdsm/internal/stats"
)

// sample builds a snapshot exercising every field, including empty and
// nil slices (which must round-trip as empty).
func sample() *Snapshot {
	st := stats.Node{ReadMisses: 7, MsgsSent: 99, BarrierTime: 1234}
	st.MissLatency[3] = 17
	return &Snapshot{
		Epoch:      42,
		SimTime:    1_000_000,
		TimerStart: 250_000,
		ReduceGen:  3,
		Journal:    []float64{1.5, -2.25, 0},
		Nodes: []NodeState{
			{
				Tags:       []byte{0, 1, 2, 1},
				Dirty:      []uint16{0, 0xffff, 0x8001, 0},
				Mapped:     []byte{1, 0},
				Blocks:     []BlockImage{{Block: 1, Data: []byte{9, 8, 7, 6}}},
				Dir:        []DirEntry{{Block: 0, Sharers: []uint64{0b1010}, Writers: []uint64{0b0100, 1}, Stale: []uint64{0b0001}}},
				IWDone:     []IWKey{{A: 3, B: 5}},
				CCFrames:   []byte{0, 1, 0, 0},
				CCTouched:  []byte{0, 0, 1, 0},
				SCHold:     []byte{1, 0, 0, 0},
				CCRecv:     12,
				CCExpected: 12,
				Stats:      st,
			},
			{
				Tags:   []byte{1, 1, 0, 0},
				Dirty:  []uint16{0, 0, 0, 0},
				Mapped: []byte{1, 1},
			},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := sample()
	blob := Encode(want)
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// normalize maps nil slices to empty ones: the codec cannot distinguish
// them and the consumers never do either.
func normalize(s *Snapshot) *Snapshot {
	c := *s
	if c.Journal == nil {
		c.Journal = []float64{}
	}
	c.Nodes = append([]NodeState(nil), s.Nodes...)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Tags == nil {
			n.Tags = []byte{}
		}
		if n.Dirty == nil {
			n.Dirty = []uint16{}
		}
		if n.Mapped == nil {
			n.Mapped = []byte{}
		}
		if n.Blocks == nil {
			n.Blocks = []BlockImage{}
		}
		if n.Dir == nil {
			n.Dir = []DirEntry{}
		}
		if n.IWDone == nil {
			n.IWDone = []IWKey{}
		}
		if n.CCFrames == nil {
			n.CCFrames = []byte{}
		}
		if n.CCTouched == nil {
			n.CCTouched = []byte{}
		}
		if n.SCHold == nil {
			n.SCHold = []byte{}
		}
	}
	return &c
}

func TestCodecRejectsCorruption(t *testing.T) {
	blob := Encode(sample())
	// Flip every byte in turn: either the CRC, the magic, the version,
	// or the structural validation must reject it. Nothing may panic.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d corrupted yet Decode succeeded", i)
		}
	}
	// Truncations at every length must fail cleanly too.
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is not a checkpoint either (CRC covers only the
	// framed payload, so this guards the exact-length check).
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCodecDeterministic(t *testing.T) {
	a, b := Encode(sample()), Encode(sample())
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic for identical snapshots")
	}
}

// FuzzCheckpointCodec feeds Decode arbitrary bytes (it must reject or
// parse, never panic) and round-trips whatever parses: a blob Decode
// accepts must re-encode to the identical blob, or the recovery path
// could silently restore a different machine than was captured.
func FuzzCheckpointCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("HPFCKPT1"))
	f.Add(Encode(sample()))
	f.Add(Encode(&Snapshot{}))
	f.Add(Encode(&Snapshot{Epoch: 1, Nodes: make([]NodeState, 3)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(s)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted blob is not canonical: re-encode differs (%d vs %d bytes)", len(re), len(data))
		}
		// Into a reused buffer too small or large enough for the blob,
		// whatever the buffer held, AppendEncode writes Encode's bytes.
		for _, size := range []int{len(re) / 2, len(re) + 64} {
			dst := bytes.Repeat([]byte{0xa5}, size)
			if got := AppendEncode(dst[:0], s); !bytes.Equal(got, re) {
				t.Fatalf("AppendEncode into a %d-byte garbage buffer differs from Encode", size)
			}
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
	})
}

// wide builds a one-node snapshot of nb blocks, every one of them kept
// as an image and carrying a directory entry.
func wide(nb int) *Snapshot {
	n := NodeState{
		Tags:      make([]byte, nb),
		Dirty:     make([]uint16, nb),
		Mapped:    make([]byte, (nb+31)/32),
		CCFrames:  make([]byte, nb),
		CCTouched: make([]byte, nb),
		SCHold:    make([]byte, nb),
		IWDone:    []IWKey{{A: 0, B: int32(nb)}},
	}
	for b := 0; b < nb; b++ {
		n.Blocks = append(n.Blocks, BlockImage{Block: int32(b), Data: make([]byte, 128)})
		n.Dir = append(n.Dir, DirEntry{Block: int32(b), Sharers: []uint64{1}, Writers: []uint64{0}, Stale: []uint64{0}})
	}
	return &Snapshot{Epoch: 1, Journal: []float64{2}, Nodes: []NodeState{n, {}}}
}

// TestEncodeSizedOnce: Encode sizes its result before writing it, so
// the blob is exactly as long as its allocation and the number of
// allocations does not depend on how much state the snapshot holds.
func TestEncodeSizedOnce(t *testing.T) {
	for _, s := range []*Snapshot{sample(), wide(1), wide(4096)} {
		if blob := Encode(s); len(blob) != cap(blob) {
			t.Errorf("Encode returned %d bytes in a buffer of %d", len(blob), cap(blob))
		}
	}
	small, large := wide(1), wide(4096)
	a := testing.AllocsPerRun(20, func() { Encode(small) })
	b := testing.AllocsPerRun(20, func() { Encode(large) })
	if a != b {
		t.Errorf("Encode allocates %v times for 1 block and %v times for 4096", a, b)
	}
}

// TestAppendEncodeReusesItsBuffer: a buffer that held a blob takes the
// next one of the same size in place, after whatever dst already holds.
func TestAppendEncodeReusesItsBuffer(t *testing.T) {
	s := wide(64)
	buf := Encode(s)
	if n := testing.AllocsPerRun(20, func() { buf = AppendEncode(buf[:0], s) }); n != 0 {
		t.Errorf("AppendEncode into a buffer that fits allocates %v times", n)
	}
	prefix := []byte("head")
	if got := AppendEncode(prefix, s); !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], buf) {
		t.Error("AppendEncode does not append Encode's bytes to what dst holds")
	}
}

// TestDecodeAllocsPerNode: a node's block images and directory sets are
// carved from one arena each, so Decode allocates as often for a node
// keeping one block as for one keeping 4096.
func TestDecodeAllocsPerNode(t *testing.T) {
	small, large := Encode(wide(1)), Encode(wide(4096))
	a := testing.AllocsPerRun(20, func() { Decode(small) })
	b := testing.AllocsPerRun(20, func() { Decode(large) })
	if a != b {
		t.Errorf("Decode allocates %v times for 1 block and %v times for 4096", a, b)
	}
}

// BenchmarkDecode is the host cost of decoding a 4096-block snapshot.
func BenchmarkDecode(b *testing.B) {
	blob := Encode(wide(4096))
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	for b.Loop() {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode is the host cost of encoding a 4096-block snapshot.
func BenchmarkEncode(b *testing.B) {
	s := wide(4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(Encode(s))))
	for b.Loop() {
		Encode(s)
	}
}
