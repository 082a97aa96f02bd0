package sections

import (
	"math/rand"
	"slices"
	"testing"
)

// The reference pipeline Cover replaced, kept as its oracle: an
// odometer over the outer indices that asks Addr for every run's start,
// a sort-and-merge coalesce, the inward shrink, the conversion to runs
// of blocks, and the edges as the touched blocks minus the interior.

func refRuns(l Layout, s Section) []Run {
	if len(s.Dims) != len(l.Extents) {
		panic("sections: Runs rank mismatch")
	}
	if s.Empty() {
		return nil
	}
	elems := 1
	k := 0
	for k < len(l.Extents) && s.Dims[k].Lo == 1 && s.Dims[k].Hi == l.Extents[k] {
		elems *= l.Extents[k]
		k++
	}
	if k < len(l.Extents) {
		elems *= s.Dims[k].Count()
		k++
	}
	runBytes := elems * l.ElemSize
	outer := s.Dims[k:]
	idx := make([]int, len(outer))
	for d := range outer {
		idx[d] = outer[d].Lo
	}
	var runs []Run
	for {
		full := make([]int, len(l.Extents))
		for d := 0; d < k; d++ {
			full[d] = s.Dims[d].Lo
		}
		copy(full[k:], idx)
		runs = append(runs, Run{Addr: l.Addr(full...), Bytes: runBytes})
		d := 0
		for ; d < len(outer); d++ {
			idx[d]++
			if idx[d] <= outer[d].Hi {
				break
			}
			idx[d] = outer[d].Lo
		}
		if d == len(outer) {
			break
		}
	}
	return refCoalesce(runs)
}

func refCoalesce(runs []Run) []Run {
	if len(runs) <= 1 {
		return runs
	}
	sorted := slices.Clone(runs)
	slices.SortStableFunc(sorted, func(a, b Run) int { return a.Addr - b.Addr })
	out := sorted[:1]
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r.Addr <= last.End() {
			if r.End() > last.End() {
				last.Bytes = r.End() - last.Addr
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func refBlockAlign(runs []Run, blockSize int) []Run {
	var out []Run
	for _, r := range runs {
		lo := (r.Addr + blockSize - 1) / blockSize * blockSize
		hi := r.End() / blockSize * blockSize
		if hi > lo {
			out = append(out, Run{Addr: lo, Bytes: hi - lo})
		}
	}
	return out
}

func refRunsToBlocks(runs []Run, blockSize int) []BlockRun {
	var out []BlockRun
	for _, r := range runs {
		if r.Addr%blockSize != 0 || r.Bytes%blockSize != 0 {
			panic("sections: run is not block aligned")
		}
		out = append(out, BlockRun{Start: r.Addr / blockSize, N: r.Bytes / blockSize})
	}
	return out
}

// refCover is what the compiler computed before Cover.
func refCover(l Layout, s Section, blockSize int) (runs []Run, interior, edges []BlockRun, bytes int) {
	runs = refCoalesce(refRuns(l, s))
	var touched []BlockRun
	for _, r := range runs {
		bytes += r.Bytes
		touched = append(touched, r.Blocks(blockSize))
	}
	interior = refRunsToBlocks(refBlockAlign(runs, blockSize), blockSize)
	return runs, interior, Minus(touched, interior), bytes
}

// checkCover compares Runs and Cover, into fresh lists and into used
// ones, with the reference.
func checkCover(t *testing.T, l Layout, s Section, blockSize int) {
	t.Helper()
	wantRuns, wantIn, wantEdges, wantBytes := refCover(l, s, blockSize)
	if got := l.Runs(s); !slices.Equal(got, wantRuns) {
		t.Fatalf("%+v.Runs(%v) = %v, reference %v", l, s, got, wantRuns)
	}
	in, edges, bytes := l.Cover(s, blockSize, nil, nil)
	if !slices.Equal(in, wantIn) || !slices.Equal(edges, wantEdges) || bytes != wantBytes {
		t.Fatalf("%+v.Cover(%v, %d) = %v, %v, %dB; reference %v, %v, %dB",
			l, s, blockSize, in, edges, bytes, wantIn, wantEdges, wantBytes)
	}
	if !canonical(in) || !canonical(edges) || bytes != s.Count()*l.ElemSize {
		t.Fatalf("%+v.Cover(%v, %d) = %v, %v, %dB: not canonical, or not the section's bytes",
			l, s, blockSize, in, edges, bytes)
	}
	// Lists that held another section's runs are reused, not appended to.
	in, edges, _ = l.Cover(s, blockSize, []BlockRun{{Start: -3, N: 1}}, []BlockRun{{Start: -3, N: 1}})
	if !slices.Equal(in, wantIn) || !slices.Equal(edges, wantEdges) {
		t.Fatalf("%+v.Cover(%v, %d) into used lists = %v, %v; reference %v, %v",
			l, s, blockSize, in, edges, wantIn, wantEdges)
	}
}

// randomCover draws a layout of rank 0..4 with small extents, a base on
// or off a page boundary, a section with full and partial dimensions
// (empty now and then) and a block size of 8..128 bytes.
func randomCover(rng *rand.Rand) (Layout, Section, int) {
	rank := rng.Intn(5)
	l := Layout{Base: rng.Intn(4) * 4096, Extents: make([]int, rank), ElemSize: 8}
	if rng.Intn(2) == 0 {
		l.Base += 8 * rng.Intn(512)
	}
	s := Section{Dims: make([]Dim, rank)}
	for d := range rank {
		ext := 1 + rng.Intn(9)
		l.Extents[d] = ext
		switch rng.Intn(4) {
		case 0, 1:
			s.Dims[d] = Dim{1, ext}
		case 2:
			lo := 1 + rng.Intn(ext)
			s.Dims[d] = Dim{lo, lo + rng.Intn(ext-lo+1)}
		default:
			if rng.Intn(8) == 0 {
				s.Dims[d] = Dim{2, 1}
			} else {
				lo := 1 + rng.Intn(ext)
				s.Dims[d] = Dim{lo, lo}
			}
		}
	}
	return l, s, 8 * (1 + rng.Intn(16))
}

// TestCoverMatchesReference: Runs and Cover equal the reference
// pipeline on random layouts and sections.
func TestCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for range 20000 {
		l, s, bs := randomCover(rng)
		checkCover(t, l, s, bs)
	}
	// Whole arrays, one run each, at every block size.
	for bs := 8; bs <= 128; bs += 8 {
		l := Layout{Base: 4096 + 40, Extents: []int{7, 5, 3}, ElemSize: 8}
		checkCover(t, l, Rect(1, 7, 1, 5, 1, 3), bs)
		checkCover(t, Layout{Base: 24, ElemSize: 8}, Section{}, bs)
	}
}

// FuzzCover: the fuzzer picks the layout and section byte by byte.
// shape holds three bytes per dimension (rank up to 4): the extent,
// then the low and high index; an index byte with its top bit set
// selects the dimension's full range.
func FuzzCover(f *testing.F) {
	f.Add(uint16(0), uint8(15), []byte{})
	f.Add(uint16(5), uint8(15), []byte{63, 0x80, 0x80, 63, 2, 9})
	f.Add(uint16(512), uint8(3), []byte{10, 2, 4, 5, 1, 3})
	f.Add(uint16(1), uint8(0), []byte{4, 0x80, 0x80, 5, 0x80, 0x80, 6, 2, 3})
	f.Add(uint16(77), uint8(7), []byte{3, 1, 2, 4, 0x80, 0x80, 5, 1, 4, 2, 1, 1})
	f.Fuzz(func(t *testing.T, base uint16, block uint8, shape []byte) {
		rank := min(len(shape)/3, 4)
		l := Layout{Base: 8 * int(base), Extents: make([]int, rank), ElemSize: 8}
		s := Section{Dims: make([]Dim, rank)}
		for d := range rank {
			b := shape[3*d:]
			ext := 1 + int(b[0])%32
			l.Extents[d] = ext
			if b[1]&0x80 != 0 || b[2]&0x80 != 0 {
				s.Dims[d] = Dim{1, ext}
				continue
			}
			lo := 1 + int(b[1])%ext
			s.Dims[d] = Dim{lo, min(ext, lo+int(b[2])-1)} // b[2] == 0: empty
		}
		checkCover(t, l, s, 8*(1+int(block)%16))
	})
}

// TestCoverAllocs: Cover into the lists of an earlier call allocates
// nothing.
func TestCoverAllocs(t *testing.T) {
	l := Layout{Base: 4096 + 40, Extents: []int{64, 48, 4}, ElemSize: 8}
	s := Rect(3, 61, 2, 47, 1, 4)
	in, edges, _ := l.Cover(s, 128, nil, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		in, edges, _ = l.Cover(s, 128, in, edges)
	}); allocs != 0 {
		t.Fatalf("Cover into warmed lists allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkCover: shmem_limits of a fixed set of sections, the shapes
// the compiler meets (whole columns, a partial column per column, a
// plane, a column of a 3-D array), into reused lists.
func BenchmarkCover(b *testing.B) {
	lay2 := Layout{Base: 4096, Extents: []int{512, 512}, ElemSize: 8}
	lay3 := Layout{Base: 3 * 4096, Extents: []int{64, 64, 64}, ElemSize: 8}
	cases := []struct {
		l Layout
		s Section
	}{
		{lay2, Rect(1, 512, 129, 192)},
		{lay2, Rect(2, 511, 129, 192)},
		{lay2, Rect(100, 100, 1, 512)},
		{lay3, Rect(1, 64, 1, 64, 33, 33)},
		{lay3, Rect(5, 60, 17, 17, 1, 64)},
	}
	var in, edges []BlockRun
	for _, c := range cases { // grow the lists outside the timed loop
		in, edges, _ = c.l.Cover(c.s, 128, in, edges)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range cases {
			in, edges, _ = c.l.Cover(c.s, 128, in, edges)
		}
	}
}
