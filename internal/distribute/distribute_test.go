package distribute

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestBlockOwnership(t *testing.T) {
	d := New(Spec{Kind: Block}, 16, 4)
	if d.ChunkSize() != 4 {
		t.Fatalf("chunk = %d", d.ChunkSize())
	}
	wants := map[int]int{1: 0, 4: 0, 5: 1, 8: 1, 9: 2, 13: 3, 16: 3}
	for j, p := range wants {
		if d.Owner(j) != p {
			t.Fatalf("Owner(%d) = %d, want %d", j, d.Owner(j), p)
		}
	}
	if r := d.OwnedRanges(2); len(r) != 1 || r[0] != [2]int{9, 12} {
		t.Fatalf("ranges(2) = %v", r)
	}
}

// countOwned sums the indices of p's owned ranges.
func countOwned(d Dist, p int) int {
	n := 0
	for _, r := range d.OwnedRanges(p) {
		n += r[1] - r[0] + 1
	}
	return n
}

func TestBlockUneven(t *testing.T) {
	// 10 indices over 4 procs: chunks of 3, last proc gets 1.
	d := New(Spec{Kind: Block}, 10, 4)
	if countOwned(d, 0) != 3 || countOwned(d, 3) != 1 {
		t.Fatalf("counts: %d %d %d %d",
			countOwned(d, 0), countOwned(d, 1), countOwned(d, 2), countOwned(d, 3))
	}
	// Degenerate: extent smaller than np; trailing procs own nothing.
	d2 := New(Spec{Kind: Block}, 2, 4)
	if countOwned(d2, 0) != 1 || countOwned(d2, 1) != 1 || countOwned(d2, 2) != 0 {
		t.Fatal("degenerate block wrong")
	}
	// Owner clamps into range.
	if d2.Owner(2) != 1 {
		t.Fatalf("owner(2) = %d", d2.Owner(2))
	}
}

func TestCyclicOwnership(t *testing.T) {
	d := New(Spec{Kind: Cyclic}, 10, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	for j := 1; j <= 10; j++ {
		if d.Owner(j) != want[j-1] {
			t.Fatalf("Owner(%d) = %d, want %d", j, d.Owner(j), want[j-1])
		}
	}
	r := d.OwnedRanges(1)
	if len(r) != 3 || r[0] != [2]int{2, 2} || r[2] != [2]int{8, 8} {
		t.Fatalf("cyclic ranges = %v", r)
	}
}

func TestBlockCyclic(t *testing.T) {
	d := New(Spec{Kind: BlockCyclic, K: 2}, 12, 3)
	// chunks: [1,2]->0 [3,4]->1 [5,6]->2 [7,8]->0 ...
	if d.Owner(2) != 0 || d.Owner(3) != 1 || d.Owner(7) != 0 {
		t.Fatal("block-cyclic owners wrong")
	}
	r := d.OwnedRanges(0)
	if len(r) != 2 || r[0] != [2]int{1, 2} || r[1] != [2]int{7, 8} {
		t.Fatalf("ranges = %v", r)
	}
}

func TestCollapsed(t *testing.T) {
	d := New(Spec{Kind: Collapsed}, 7, 4)
	for j := 1; j <= 7; j++ {
		if d.Owner(j) != 0 {
			t.Fatal("collapsed owner must be 0")
		}
	}
	if len(d.OwnedRanges(1)) != 0 {
		t.Fatal("collapsed non-root owns nothing")
	}
}

// TestPropertyPartition verifies that OwnedRanges partitions
// 1..Extent and agrees with Owner, and that AppendOwnedRanges appends
// exactly OwnedRanges' list behind what its list held, for every kind
// (BlockCyclic chunks past the extent included), on small machines and
// on 64 and 256 processors, over random extents.
func TestPropertyPartition(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	specs := func(extent int) []Spec {
		return []Spec{{Kind: Collapsed}, {Kind: Block}, {Kind: Cyclic},
			{Kind: BlockCyclic, K: 1 + r.Intn(5)}, {Kind: BlockCyclic, K: extent + r.Intn(3)}}
	}
	for _, np := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 256} {
		for trial := 0; trial < 20; trial++ {
			extent := 1 + r.Intn(600)
			for _, spec := range specs(extent) {
				d := New(spec, extent, np)
				owner := make([]int, extent+1)
				for j := range owner {
					owner[j] = -1
				}
				total := 0
				var all [][2]int // every processor's ranges, appended in turn
				for p := 0; p < np; p++ {
					ranges := d.OwnedRanges(p)
					at := len(all)
					all = d.AppendOwnedRanges(all, p)
					if !slices.Equal(all[at:], ranges) {
						t.Fatalf("%v: AppendOwnedRanges(_, %d) appended %v, OwnedRanges says %v", d, p, all[at:], ranges)
					}
					for _, rg := range ranges {
						for j := rg[0]; j <= rg[1]; j++ {
							if owner[j] != -1 {
								t.Fatalf("%v: index %d owned twice", d, j)
							}
							owner[j] = p
							total++
							if d.Owner(j) != p {
								t.Fatalf("%v: Owner(%d)=%d but ranges say %d", d, j, d.Owner(j), p)
							}
						}
					}
				}
				if total != extent {
					t.Fatalf("%v: covered %d of %d indices", d, total, extent)
				}
			}
		}
	}
}

func TestPanics(t *testing.T) {
	d := New(Spec{Kind: Block}, 10, 2)
	for _, f := range []func(){
		func() { d.Owner(0) },
		func() { d.Owner(11) },
		func() { d.OwnedRanges(2) },
		func() { New(Spec{Kind: BlockCyclic}, 10, 2) },
		func() { New(Spec{Kind: Block}, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStrings(t *testing.T) {
	if Block.String() != "BLOCK" || Cyclic.String() != "CYCLIC" || Collapsed.String() != "*" {
		t.Fatal("kind strings wrong")
	}
	_ = New(Spec{Kind: Block}, 4, 2).String()
}

// A chunk no shorter than the extent puts every index on processor 0.
// CYCLIC(MaxInt) used to overflow OwnedRanges' stride and append ranges
// until memory ran out.
func TestBlockCyclicChunkPastExtent(t *testing.T) {
	for _, k := range []int{16, 17, math.MaxInt} {
		d := New(Spec{Kind: BlockCyclic, K: k}, 16, 4)
		if d.ChunkSize() != 16 {
			t.Errorf("K = %d: chunk %d, want the extent 16", k, d.ChunkSize())
		}
		for j := 1; j <= 16; j++ {
			if o := d.Owner(j); o != 0 {
				t.Fatalf("K = %d: Owner(%d) = %d, want 0", k, j, o)
			}
		}
		for p := range 4 {
			want := [][2]int(nil)
			if p == 0 {
				want = [][2]int{{1, 16}}
			}
			if got := d.OwnedRanges(p); !slices.Equal(got, want) {
				t.Errorf("K = %d: OwnedRanges(%d) = %v, want %v", k, p, got, want)
			}
		}
	}
}
