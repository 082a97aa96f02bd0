package memory

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"hpfdsm/internal/config"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	return NewSpace(config.Default())
}

func TestAllocPageAligned(t *testing.T) {
	sp := testSpace(t)
	a := sp.Alloc("a", 100)
	b := sp.Alloc("b", 5000)
	c := sp.Alloc("c", 4096)
	pg := sp.Machine().PageSize
	if a%pg != 0 || b%pg != 0 || c%pg != 0 {
		t.Fatalf("allocations not page aligned: %d %d %d", a, b, c)
	}
	if b != pg {
		t.Fatalf("b base = %d, want %d", b, pg)
	}
	if c != 3*pg {
		t.Fatalf("c base = %d, want %d (5000 bytes round to 2 pages)", c, 3*pg)
	}
}

func TestHomeRoundRobin(t *testing.T) {
	sp := testSpace(t)
	sp.Alloc("big", 20*sp.Machine().PageSize)
	n := sp.Machine().Nodes
	for pg := 0; pg < sp.NumPages(); pg++ {
		addr := pg * sp.Machine().PageSize
		if sp.Home(addr) != pg%n {
			t.Fatalf("page %d home = %d, want %d", pg, sp.Home(addr), pg%n)
		}
		b := sp.Block(addr)
		if sp.HomeOfBlock(b) != pg%n {
			t.Fatalf("block home disagrees with page home")
		}
	}
}

// TestHomeSlotsAreDenseAndAscending: walking the blocks in order fills
// each home's slots 0, 1, 2, ... with no gap, HomedBlock takes each slot
// back to its block, and NumHomed is the count — also when the pages do
// not divide evenly among the nodes.
func TestHomeSlotsAreDenseAndAscending(t *testing.T) {
	sp := testSpace(t)
	n := sp.Machine().Nodes
	sp.Alloc("ragged", (2*n+3)*sp.Machine().PageSize)
	next := make([]int, n)
	for b := 0; b < sp.NumBlocks(); b++ {
		home, slot := sp.HomeSlot(b)
		if home != sp.HomeOfBlock(b) || slot != next[home] || sp.HomedBlock(home, slot) != b {
			t.Fatalf("block %d: HomeSlot = (%d, %d), HomedBlock back = %d; want home %d, slot %d",
				b, home, slot, sp.HomedBlock(home, slot), sp.HomeOfBlock(b), next[home])
		}
		next[home]++
	}
	for home, count := range next {
		if sp.NumHomed(home) != count {
			t.Fatalf("NumHomed(%d) = %d, %d blocks are homed there", home, sp.NumHomed(home), count)
		}
	}
}

func TestBlockGeometry(t *testing.T) {
	sp := testSpace(t)
	sp.Alloc("x", 4096)
	bs := sp.BlockSize()
	if sp.Block(0) != 0 || sp.Block(bs-1) != 0 || sp.Block(bs) != 1 {
		t.Fatal("block boundaries wrong")
	}
}

// Home pages start mapped and ReadWrite, all others unmapped and
// Invalid, on every node; filling the whole image first shows that
// data never moves a tag, a dirty mask or a mapped bit.
func TestHomePagesStartReadWrite(t *testing.T) {
	sp := testSpace(t)
	sp.Alloc("x", 16*sp.Machine().PageSize)
	ones := bytes.Repeat([]byte{0xff}, sp.Size())
	bpp := sp.Machine().PageSize / sp.BlockSize()
	for id := 0; id < sp.Machine().Nodes; id++ {
		nm := NewNodeMem(sp, id)
		nm.InstallRange(0, ones)
		for pg := 0; pg < sp.NumPages(); pg++ {
			isHome := sp.Home(pg*sp.Machine().PageSize) == id
			if nm.Mapped(pg) != isHome {
				t.Fatalf("node %d page %d mapped=%v, home=%v", id, pg, nm.Mapped(pg), isHome)
			}
			for b := pg * bpp; b < (pg+1)*bpp; b++ {
				want := Invalid
				if isHome {
					want = ReadWrite
				}
				if nm.Tag(b) != want || nm.Dirty(b) != 0 {
					t.Fatalf("node %d page %d block %d tag=%v dirty=%#x, want %v and clean", id, pg, b, nm.Tag(b), nm.Dirty(b), want)
				}
			}
		}
	}
}

func TestReadWriteF64RoundTrip(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096)
	nm := NewNodeMem(sp, 0)
	vals := []float64{0, 1.5, -2.25e10, 3.141592653589793}
	for i, v := range vals {
		nm.WriteF64(base+8*i, v)
	}
	for i, v := range vals {
		if got := nm.ReadF64(base + 8*i); got != v {
			t.Fatalf("ReadF64[%d] = %v, want %v", i, got, v)
		}
	}
}

func TestDirtyMaskTracksWords(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096)
	nm := NewNodeMem(sp, 0)
	b := sp.Block(base)
	if nm.Dirty(b) != 0 {
		t.Fatal("fresh block dirty")
	}
	nm.WriteF64(base, 1)      // word 0
	nm.WriteF64(base+24, 2)   // word 3
	nm.WriteF64(base+8*15, 3) // word 15 (last in 128B block)
	want := uint16(1 | 1<<3 | 1<<15)
	if nm.Dirty(b) != want {
		t.Fatalf("dirty = %016b, want %016b", nm.Dirty(b), want)
	}
	nm.ClearDirty(b)
	if nm.Dirty(b) != 0 {
		t.Fatal("ClearDirty failed")
	}
}

// TestMarkDirtyRunMatchesWriteF64: the strip executor's dirty-run marker
// sets exactly the bits the per-word stores would have, at every block
// size, for runs that start and end mid-block, span blocks, stride
// forward, backward and not at all.
func TestMarkDirtyRunMatchesWriteF64(t *testing.T) {
	for _, bs := range []int{128, 64, 32, 24, 8} {
		mc := config.Default().WithBlockSize(bs)
		if bs == 24 {
			mc.PageSize = 24 * 128
		}
		sp := NewSpace(mc)
		base := sp.Alloc("x", 2*mc.PageSize)
		for _, stride := range []int{8, 16, 24, 40, 8 * 50, 0, -8, -24} {
			for _, start := range []int{0, 8, bs - 8, bs, 5 * 8} {
				for _, k := range []int{1, 2, 3, 15, 16, 17, 40} {
					first := base + mc.PageSize + start
					if last := first + stride*(k-1); last < base || last+8 > base+2*mc.PageSize {
						continue
					}
					perWord, run := NewNodeMem(sp, 0), NewNodeMem(sp, 0)
					for i := 0; i < k; i++ {
						perWord.WriteF64(first+i*stride, 1)
					}
					run.MarkDirtyRun(first, stride, k)
					for b := 0; b < sp.NumBlocks(); b++ {
						if perWord.Dirty(b) != run.Dirty(b) {
							t.Fatalf("block size %d, stride %d, start %d, %d words: block %d dirty = %016b, per-word stores give %016b",
								bs, stride, start, k, b, run.Dirty(b), perWord.Dirty(b))
						}
					}
				}
			}
		}
	}
}

// TestCardsCoverEveryMutator: each mutator that can give a block dirty
// words or a readonly tag sets the card of that block's page, and one
// that gives none sets no card. Runs cover strides 8, 16 and -8 and
// cross a page boundary; both a power-of-two page and one that is not.
func TestCardsCoverEveryMutator(t *testing.T) {
	for _, bs := range []int{128, 24} {
		mc := config.Default().WithBlockSize(bs)
		if bs == 24 {
			mc.PageSize = 24 * 128
		}
		sp := NewSpace(mc)
		ps := mc.PageSize
		base := sp.Alloc("x", 4*ps)
		edge := base + 2*ps // the first byte of page 2
		b := sp.Block(base + ps + 8)
		for _, c := range []struct {
			name   string
			mutate func(m *NodeMem)
			carded bool // whether the mutation leaves any block dirty or readonly
		}{
			{"SetTag readonly", func(m *NodeMem) { m.SetTag(b, ReadOnly) }, true},
			{"SetTag readwrite", func(m *NodeMem) { m.SetTag(b, ReadWrite) }, false},
			{"SetTag invalid", func(m *NodeMem) { m.SetTag(b, Invalid) }, false},
			{"WriteF64", func(m *NodeMem) { m.WriteF64(edge-8, 1) }, true},
			{"MarkAllDirty", func(m *NodeMem) { m.MarkAllDirty(b) }, true},
			{"SetDirtyMask nonzero", func(m *NodeMem) { m.SetDirtyMask(b, 1<<2) }, true},
			{"SetDirtyMask zero", func(m *NodeMem) { m.SetDirtyMask(b, 0) }, false},
			{"MarkDirtyRun stride 8 across a page", func(m *NodeMem) { m.MarkDirtyRun(edge-3*8, 8, 7) }, true},
			{"MarkDirtyRun stride 8 across pages", func(m *NodeMem) { m.MarkDirtyRun(edge-ps-8, 8, ps/8+2) }, true},
			{"MarkDirtyRun stride 16 across a page", func(m *NodeMem) { m.MarkDirtyRun(edge-5*16, 16, 9) }, true},
			{"MarkDirtyRun stride -8 across a page", func(m *NodeMem) { m.MarkDirtyRun(edge+2*8, -8, 6) }, true},
			{"MarkDirtyRun stride -8 within a page", func(m *NodeMem) { m.MarkDirtyRun(edge+5*8, -8, 3) }, true},
		} {
			m := NewNodeMem(sp, 1)
			for pg, set := range m.Cards() {
				if set {
					t.Fatalf("block size %d: fresh node has page %d carded", bs, pg)
				}
			}
			c.mutate(m)
			touched := 0
			for blk := 0; blk < sp.NumBlocks(); blk++ {
				if m.Dirty(blk) == 0 && m.Tag(blk) != ReadOnly {
					continue
				}
				touched++
				if pg := sp.Page(blk * bs); !m.Cards()[pg] {
					t.Errorf("block size %d, %s: block %d is dirty (%016b) or readonly (%v) under page %d, whose card is clear",
						bs, c.name, blk, m.Dirty(blk), m.Tag(blk), pg)
				}
			}
			if (touched > 0) != c.carded {
				t.Errorf("block size %d, %s: %d blocks dirty or readonly, want some: %v", bs, c.name, touched, c.carded)
			}
			if !c.carded {
				for pg, set := range m.Cards() {
					if set {
						t.Errorf("block size %d, %s: page %d carded with nothing dirty or readonly", bs, c.name, pg)
					}
				}
			}
		}
	}
}

func TestMergeDirtyWords(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096)
	home := NewNodeMem(sp, 0) // page 0 homed at node 0
	writer := NewNodeMem(sp, 1)
	b := sp.Block(base)

	// Home has words 0..15 = 100+i; writer modified words 2 and 5 only.
	for i := 0; i < 16; i++ {
		home.WriteF64(base+8*i, float64(100+i))
	}
	home.ClearDirty(b)
	writer.WriteF64(base+16, -2)
	writer.WriteF64(base+40, -5)
	home.MergeDirtyWords(b, writer.BlockData(b), writer.Dirty(b))
	runtime.KeepAlive(writer) // its image may be unmapped once writer is unreachable

	for i := 0; i < 16; i++ {
		want := float64(100 + i)
		if i == 2 {
			want = -2
		}
		if i == 5 {
			want = -5
		}
		if got := home.ReadF64(base + 8*i); got != want {
			t.Fatalf("word %d = %v, want %v", i, got, want)
		}
	}
}

func TestInstallBlockAndRange(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096)
	a := NewNodeMem(sp, 0)
	bnode := NewNodeMem(sp, 1)
	for i := 0; i < 32; i++ {
		a.WriteF64(base+8*i, float64(i)*1.5)
	}
	blk := sp.Block(base)
	bnode.InstallBlock(blk, a.BlockData(blk))
	bnode.InstallRange(base+sp.BlockSize(), a.Bytes(base+sp.BlockSize(), sp.BlockSize()))
	runtime.KeepAlive(a)
	for i := 0; i < 32; i++ {
		if got := bnode.ReadF64(base + 8*i); got != float64(i)*1.5 {
			t.Fatalf("installed word %d = %v", i, got)
		}
	}
}

func TestCheckLoadStore(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096) // page 0, home node 0
	n0 := NewNodeMem(sp, 0)
	n1 := NewNodeMem(sp, 1)
	if !n0.CheckLoad(base) || !n0.CheckStore(base) {
		t.Fatal("home node should have RW access initially")
	}
	if n1.CheckLoad(base) || n1.CheckStore(base) {
		t.Fatal("remote node should fault initially")
	}
	b := sp.Block(base)
	n1.SetTag(b, ReadOnly)
	if !n1.CheckLoad(base) || n1.CheckStore(base) {
		t.Fatal("readonly semantics wrong")
	}
	n1.SetTag(b, ReadWrite)
	if !n1.CheckStore(base) {
		t.Fatal("readwrite store should pass")
	}
}

func TestTagString(t *testing.T) {
	if Invalid.String() != "invalid" || ReadOnly.String() != "readonly" || ReadWrite.String() != "readwrite" {
		t.Fatal("Tag.String broken")
	}
	if Tag(9).String() == "" {
		t.Fatal("unknown tag empty string")
	}
}

func TestPropertyF64RoundTrip(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 8192)
	nm := NewNodeMem(sp, 0)
	f := func(idx uint16, v float64) bool {
		addr := base + int(idx%1024)*8
		nm.WriteF64(addr, v)
		got := nm.ReadF64(addr)
		return got == v || (got != got && v != v) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeNeverTouchesCleanWords(t *testing.T) {
	sp := testSpace(t)
	base := sp.Alloc("x", 4096)
	blk := sp.Block(base)
	f := func(mask uint16, seed uint8) bool {
		home := NewNodeMem(sp, 0)
		w := NewNodeMem(sp, 1)
		for i := 0; i < 16; i++ {
			home.WriteF64(base+8*i, float64(int(seed)+i))
			w.WriteF64(base+8*i, float64(-1000-i))
		}
		home.ClearDirty(blk)
		home.MergeDirtyWords(blk, w.BlockData(blk), mask)
		runtime.KeepAlive(w)
		for i := 0; i < 16; i++ {
			got := home.ReadF64(base + 8*i)
			if mask&(1<<uint(i)) != 0 {
				if got != float64(-1000-i) {
					return false
				}
			} else if got != float64(int(seed)+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
