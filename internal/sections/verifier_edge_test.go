package sections

import (
	"testing"
)

// Edge cases the static verifier leans on: the contract checker
// recomputes shmem_limits shrinks, so the corner behavior of
// BlockAlign must be exact.

// TestBlockAlignMidBlock: runs ending mid-block are truncated to the
// last boundary; runs contained within one block vanish entirely (the
// paper's shmem_limits leaves those elements to the default protocol).
func TestBlockAlignMidBlock(t *testing.T) {
	const bs = 128
	cases := []struct {
		name string
		in   Run
		want []Run
	}{
		{"aligned", Run{Addr: 256, Bytes: 384}, []Run{{Addr: 256, Bytes: 384}}},
		{"head unaligned", Run{Addr: 200, Bytes: 440}, []Run{{Addr: 256, Bytes: 384}}},
		{"tail mid-block", Run{Addr: 256, Bytes: 400}, []Run{{Addr: 256, Bytes: 384}}},
		{"both ends mid-block", Run{Addr: 130, Bytes: 500}, []Run{{Addr: 256, Bytes: 256}}},
		{"sub-block vanishes", Run{Addr: 130, Bytes: 60}, nil},
		{"spans boundary but under a block", Run{Addr: 100, Bytes: 100}, nil},
		{"exactly one block after shrink", Run{Addr: 127, Bytes: 130}, []Run{{Addr: 128, Bytes: 128}}},
	}
	for _, c := range cases {
		got := BlockAlign([]Run{c.in}, bs)
		if len(got) != len(c.want) {
			t.Errorf("%s: BlockAlign(%+v) = %v, want %v", c.name, c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: BlockAlign(%+v) = %v, want %v", c.name, c.in, got, c.want)
			}
		}
	}
}

// FuzzBlockAlign: for arbitrary runs and block sizes, the shrink must
// return block-aligned runs that are subsets of their inputs, holding
// every whole block of the input and no other. This is the
// shmem_limits safety property the static verifier's alignment rule
// (contract/shmem-limits) re-checks per schedule.
func FuzzBlockAlign(f *testing.F) {
	f.Add(200, 440, 128)
	f.Add(0, 1024, 128)
	f.Add(130, 60, 128)
	f.Add(5, 5, 32)
	f.Add(1023, 4097, 4096)
	f.Fuzz(func(t *testing.T, addr, bytes, bs int) {
		if bs < 1 || bs > 1<<16 || addr < 0 || addr > 1<<30 || bytes < 0 || bytes > 1<<24 {
			t.Skip()
		}
		in := Run{Addr: addr, Bytes: bytes}
		out := BlockAlign([]Run{in}, bs)
		if len(out) > 1 {
			t.Fatalf("one input run produced %d output runs", len(out))
		}
		for _, r := range out {
			if r.Addr%bs != 0 || r.Bytes%bs != 0 {
				t.Fatalf("BlockAlign(%+v, %d) = %+v not block aligned", in, bs, r)
			}
			if r.Bytes <= 0 {
				t.Fatalf("BlockAlign(%+v, %d) = %+v empty run emitted", in, bs, r)
			}
			if r.Addr < in.Addr || r.End() > in.End() {
				t.Fatalf("BlockAlign(%+v, %d) = %+v escapes the input run", in, bs, r)
			}
		}
		// The shrink drops less than one block off each end.
		if len(out) == 0 && bytes >= 2*bs {
			t.Fatalf("BlockAlign(%+v, %d) dropped a run holding a full block", in, bs)
		}
		// It keeps every whole block: as many as there are block
		// boundaries from the first at or after the start to the last
		// at or before the end, less one.
		got := 0
		for _, r := range out {
			got += r.Bytes / bs
		}
		if want := max(0, (addr+bytes)/bs-(addr+bs-1)/bs); got != want {
			t.Fatalf("BlockAlign(%+v, %d) = %+v keeps %d whole blocks, the input holds %d", in, bs, out, got, want)
		}
	})
}
