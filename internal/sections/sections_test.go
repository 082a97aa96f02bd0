package sections

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimBasics(t *testing.T) {
	if (Dim{3, 2}).Count() != 0 || !(Dim{3, 2}).Empty() {
		t.Fatal("empty dim wrong")
	}
	if (Dim{2, 5}).Count() != 4 {
		t.Fatal("count wrong")
	}
}

func TestRectAndContains(t *testing.T) {
	s := Rect(1, 10, 5, 8)
	if s.Rank() != 2 || s.Count() != 40 {
		t.Fatalf("rect = %v count=%d", s, s.Count())
	}
	if !s.Contains(1, 5) || !s.Contains(10, 8) || s.Contains(0, 5) || s.Contains(1, 9) {
		t.Fatal("Contains wrong")
	}
}

func TestIntersect(t *testing.T) {
	a := Rect(1, 10, 1, 10)
	b := Rect(5, 15, 8, 20)
	got := Intersect(a, b)
	if !got.Equal(Rect(5, 10, 8, 10)) {
		t.Fatalf("intersect = %v", got)
	}
	if !Intersect(Rect(1, 3), Rect(5, 9)).Empty() {
		t.Fatal("disjoint intersect not empty")
	}
}

func randSection(r *rand.Rand, rank, max int) Section {
	s := Section{Dims: make([]Dim, rank)}
	for d := range s.Dims {
		lo := 1 + r.Intn(max)
		hi := lo + r.Intn(max-lo+1)
		s.Dims[d] = Dim{lo, hi}
	}
	return s
}

// --- Layout / linearization ------------------------------------------

func TestAddrColumnMajor(t *testing.T) {
	l := Layout{Base: 1000, Extents: []int{4, 3}, ElemSize: 8}
	if l.Addr(1, 1) != 1000 {
		t.Fatal("base addr wrong")
	}
	if l.Addr(2, 1) != 1008 { // first dim fastest
		t.Fatal("column-major order violated")
	}
	if l.Addr(1, 2) != 1000+4*8 {
		t.Fatal("second-dim stride wrong")
	}
	if l.SizeBytes() != 4*3*8 {
		t.Fatal("size wrong")
	}
}

func TestRunsWholeColumnsMerge(t *testing.T) {
	// Columns 2..3 of a 10x5 array are one contiguous run.
	l := Layout{Base: 0, Extents: []int{10, 5}, ElemSize: 8}
	runs := l.Runs(Rect(1, 10, 2, 3))
	if len(runs) != 1 {
		t.Fatalf("runs = %v, want single run", runs)
	}
	if runs[0].Addr != 10*8 || runs[0].Bytes != 2*10*8 {
		t.Fatalf("run = %+v", runs[0])
	}
}

func TestRunsPartialColumn(t *testing.T) {
	// Rows 2..4 of columns 1..3: one run per column.
	l := Layout{Base: 0, Extents: []int{10, 5}, ElemSize: 8}
	runs := l.Runs(Rect(2, 4, 1, 3))
	if len(runs) != 3 {
		t.Fatalf("runs = %v, want 3", runs)
	}
	for c := 0; c < 3; c++ {
		want := Run{Addr: (c*10 + 1) * 8, Bytes: 3 * 8}
		if runs[c] != want {
			t.Fatalf("run %d = %+v, want %+v", c, runs[c], want)
		}
	}
}

func TestRuns3DFullPrefix(t *testing.T) {
	// Full planes k=2..3 of a 4x5x6 array merge into one run.
	l := Layout{Base: 0, Extents: []int{4, 5, 6}, ElemSize: 8}
	runs := l.Runs(Rect(1, 4, 1, 5, 2, 3))
	if len(runs) != 1 || runs[0].Addr != 4*5*8 || runs[0].Bytes != 2*4*5*8 {
		t.Fatalf("runs = %v", runs)
	}
}

func TestRunsCoverEveryElementExactlyOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		ext := []int{1 + r.Intn(6), 1 + r.Intn(6), 1 + r.Intn(4)}
		l := Layout{Base: 0, Extents: ext, ElemSize: 8}
		s := Section{Dims: []Dim{
			{1 + r.Intn(ext[0]), 0}, {1 + r.Intn(ext[1]), 0}, {1 + r.Intn(ext[2]), 0},
		}}
		for d := range s.Dims {
			s.Dims[d].Hi = s.Dims[d].Lo + r.Intn(ext[d]-s.Dims[d].Lo+1)
		}
		runs := l.Runs(s)
		covered := map[int]bool{}
		for _, run := range runs {
			for a := run.Addr; a < run.End(); a += 8 {
				if covered[a] {
					t.Fatalf("address %d covered twice by %v of %v", a, runs, s)
				}
				covered[a] = true
			}
		}
		if len(covered) != s.Count() {
			t.Fatalf("covered %d addrs, section has %d elements (%v)", len(covered), s.Count(), s)
		}
		for i := s.Dims[0].Lo; i <= s.Dims[0].Hi; i++ {
			for j := s.Dims[1].Lo; j <= s.Dims[1].Hi; j++ {
				for k := s.Dims[2].Lo; k <= s.Dims[2].Hi; k++ {
					if !covered[l.Addr(i, j, k)] {
						t.Fatalf("element (%d,%d,%d) not covered", i, j, k)
					}
				}
			}
		}
	}
}

func TestBlockAlignShrinks(t *testing.T) {
	const bs = 128
	// Run from 100 to 612: aligned part is [128, 512).
	got := BlockAlign([]Run{{100, 512}}, bs)
	if len(got) != 1 || got[0] != (Run{128, 384}) {
		t.Fatalf("aligned = %v", got)
	}
	// Sub-block run vanishes.
	if got := BlockAlign([]Run{{100, 100}}, bs); len(got) != 0 {
		t.Fatalf("tiny run should vanish, got %v", got)
	}
	// Already-aligned run unchanged.
	if got := BlockAlign([]Run{{256, 256}}, bs); len(got) != 1 || got[0] != (Run{256, 256}) {
		t.Fatalf("aligned run changed: %v", got)
	}
}

func TestPropertyBlockAlignInside(t *testing.T) {
	f := func(start uint16, length uint16) bool {
		r := Run{int(start), int(length)}
		for _, a := range BlockAlign([]Run{r}, 128) {
			if a.Addr < r.Addr || a.End() > r.End() {
				return false
			}
			if a.Addr%128 != 0 || a.Bytes%128 != 0 || a.Bytes <= 0 {
				return false
			}
			// Maximality: no room for another whole block on either side.
			if a.Addr-r.Addr >= 128+(a.Addr%128) || r.End()-a.End() >= 128 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
