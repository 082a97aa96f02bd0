package memory_test

import (
	"runtime"
	"testing"
	"time"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
)

// imageSpace is a segment of many pages on an 8-node machine, so every
// node has home pages and remote pages.
func imageSpace() *memory.Space {
	sp := memory.NewSpace(config.Default())
	sp.Alloc("a", 37*sp.Machine().PageSize+100)
	sp.Alloc("b", 5*sp.Machine().PageSize)
	return sp
}

// firstNonZero returns the offset of the first non-zero byte, or -1.
func firstNonZero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

func TestFreshImageReadsZero(t *testing.T) {
	sp := imageSpace()
	for id := 0; id < sp.Machine().Nodes; id++ {
		nm := memory.NewNodeMem(sp, id)
		img := nm.Bytes(0, sp.Size())
		if len(img) != sp.Size() {
			t.Fatalf("node %d: image holds %d bytes, the segment %d", id, len(img), sp.Size())
		}
		if off := firstNonZero(img); off >= 0 {
			t.Fatalf("node %d: fresh image has byte %d = %d on page %d", id, off, img[off], sp.Page(off))
		}
		runtime.KeepAlive(nm)
	}
}

func TestImageWritesStayOnTheirNode(t *testing.T) {
	sp := imageSpace()
	a, b := memory.NewNodeMem(sp, 0), memory.NewNodeMem(sp, 1)
	pg := sp.Machine().PageSize
	for addr := 0; addr < sp.Size(); addr += pg {
		a.WriteF64(addr+pg-8, float64(addr+1))
	}
	if off := firstNonZero(b.Bytes(0, sp.Size())); off >= 0 {
		t.Fatalf("node 0's writes show on node 1 at byte %d (page %d)", off, sp.Page(off))
	}
	for addr := 0; addr < sp.Size(); addr += pg {
		if got := a.ReadF64(addr + pg - 8); got != float64(addr+1) {
			t.Fatalf("node 0 reads %v at %d, wrote %v", got, addr+pg-8, float64(addr+1))
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

// Mapped images are unmapped once their NodeMem is unreachable. Cleanups
// run on their own goroutine after a collection, so the count is
// polled: first until the other tests' images are gone, then until
// these 64 are.
func TestImagesReleased(t *testing.T) {
	if !memory.ImagesMapped {
		t.Skip("images come from the Go heap in this build")
	}
	drain := func(what string) {
		deadline := time.Now().Add(10 * time.Second)
		for memory.LiveImages() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d images still mapped 10 s after %s", memory.LiveImages(), what)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	drain("the earlier tests")
	sp := imageSpace()
	mems := make([]*memory.NodeMem, 64)
	for i := range mems {
		mems[i] = memory.NewNodeMem(sp, i%sp.Machine().Nodes)
		mems[i].WriteF64(0, 1)
	}
	if got := memory.LiveImages(); got != 64 {
		t.Fatalf("%d live images after mapping 64", got)
	}
	mems = nil
	drain("dropping 64")
}

// Release unmaps a node's image at once and stops its cleanup: the
// count of live images falls without a collection, a second Release
// and later collections unmap nothing more, and a read of the released
// image panics in Go rather than faulting.
func TestReleaseUnmapsAtOnce(t *testing.T) {
	if !memory.ImagesMapped {
		t.Skip("images come from the Go heap in this build")
	}
	settle := func(what string, want int64) {
		deadline := time.Now().Add(10 * time.Second)
		for memory.LiveImages() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%d images mapped 10 s after %s, want %d", memory.LiveImages(), what, want)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	settle("the earlier tests", 0)
	nm := memory.NewNodeMem(imageSpace(), 0)
	nm.WriteF64(0, 1)
	nm.Release()
	nm.Release()
	if got := memory.LiveImages(); got != 0 {
		t.Fatalf("%d images mapped after releasing the only one", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reading a released image did not panic")
			}
		}()
		nm.ReadF64(0)
	}()
	nm = nil
	for range 3 {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	settle("collecting the released NodeMem", 0)
}

// BenchmarkNewNodeMem builds one tree_scale cluster's images: cg N=360's
// segment (a 360x360 matrix and four 360-vectors, page aligned as
// compiler.Place lays them out) on 256 nodes with 128-byte blocks, each
// node touching one page of its own.
func BenchmarkNewNodeMem(b *testing.B) {
	mc := config.Default().WithNodes(256)
	sp := memory.NewSpace(mc)
	sp.Alloc("A", 360*360*8)
	for _, v := range []string{"X", "R", "P", "Q"} {
		sp.Alloc(v, 360*8)
	}
	b.ReportAllocs()
	for b.Loop() {
		for id := 0; id < mc.Nodes; id++ {
			nm := memory.NewNodeMem(sp, id)
			nm.WriteF64(id*mc.PageSize, 1)
		}
	}
}
