package sections

import "fmt"

// Layout describes a distributed array's placement in the shared
// segment: base byte address, per-dimension extents (indices run
// 1..extent, Fortran-style), element size, and column-major order
// (the first dimension varies fastest).
type Layout struct {
	Base     int
	Extents  []int
	ElemSize int
}

// Rank returns the number of dimensions.
func (l Layout) Rank() int { return len(l.Extents) }

// SizeBytes returns the array's total size in bytes.
func (l Layout) SizeBytes() int {
	n := l.ElemSize
	for _, e := range l.Extents {
		n *= e
	}
	return n
}

// Blocks returns the blocks the array's allocation touches.
func (l Layout) Blocks(blockSize int) BlockRun {
	return Run{Addr: l.Base, Bytes: l.SizeBytes()}.Blocks(blockSize)
}

// Addr returns the byte address of element idx (1-based indices).
func (l Layout) Addr(idx ...int) int {
	if len(idx) != len(l.Extents) {
		panic(fmt.Sprintf("sections: Addr rank mismatch: %d vs %d", len(idx), len(l.Extents)))
	}
	off := 0
	stride := 1
	for d, i := range idx {
		if i < 1 || i > l.Extents[d] {
			panic(fmt.Sprintf("sections: index %d out of range 1..%d in dim %d", i, l.Extents[d], d))
		}
		off += (i - 1) * stride
		stride *= l.Extents[d]
	}
	return l.Base + off*l.ElemSize
}

// Run is a contiguous byte range [Addr, Addr+Bytes).
type Run struct {
	Addr  int
	Bytes int
}

// End returns the exclusive end address.
func (r Run) End() int { return r.Addr + r.Bytes }

// Blocks returns the blocks the run touches: it rounds outward where
// BlockAlign rounds inward.
func (r Run) Blocks(blockSize int) BlockRun {
	lo := r.Addr / blockSize
	return BlockRun{Start: lo, N: (r.End()+blockSize-1)/blockSize - lo}
}

// interior returns the whole blocks inside the run: it rounds the start
// up and the end down to block boundaries, where Blocks rounds outward.
// N <= 0 when the run holds no whole block.
func (r Run) interior(blockSize int) BlockRun {
	lo := (r.Addr + blockSize - 1) / blockSize
	return BlockRun{Start: lo, N: r.End()/blockSize - lo}
}

// Runs linearizes a section into contiguous address runs in ascending
// address order. Leading dimensions covered in full merge into longer
// runs (a whole-columns section of a 2-D array is a single run).
func (l Layout) Runs(s Section) []Run {
	var runs []Run
	l.walk(s, func(r Run) { runs = append(runs, r) })
	return runs
}

// Cover is the paper's shmem_limits in one walk over the section. It
// returns the block-aligned interior of each of the section's runs
// (BlockAlign's shrink, in blocks), the blocks the runs touch but do not
// cover (the edges, left to the default protocol), and the section's
// byte count. Both lists are canonical: runs are disjoint and
// ascending, so their interiors are too, and an edge block two runs
// share is listed once. No interior block is an edge, since a block one
// run covers holds no byte of another. The lists are built in the
// memory of interior and edges, whatever they held; passing the lists
// of a previous call makes the walk allocation-free.
func (l Layout) Cover(s Section, blockSize int, interior, edges []BlockRun) ([]BlockRun, []BlockRun, int) {
	bytes := 0
	interior, edges = interior[:0], edges[:0]
	edge := func(lo, hi int) { // blocks [lo, hi), in ascending order
		if hi <= lo {
			return
		}
		if k := len(edges) - 1; k >= 0 && lo <= edges[k].End() {
			edges[k].N = max(edges[k].End(), hi) - edges[k].Start
			return
		}
		edges = append(edges, BlockRun{Start: lo, N: hi - lo})
	}
	l.walk(s, func(r Run) {
		bytes += r.Bytes
		in, touched := r.interior(blockSize), r.Blocks(blockSize)
		if in.N <= 0 {
			edge(touched.Start, touched.End())
			return
		}
		interior = append(interior, in)
		edge(touched.Start, in.Start)
		edge(in.End(), touched.End())
	})
	return interior, edges, bytes
}

// walk calls yield with each of the section's runs in ascending address
// order. The leading dimensions the section covers in full and the one
// after them make one piece of contiguous bytes; the outer dimensions
// place the pieces, stepping by their byte strides. Two pieces never
// abut, because the partial dimension leaves a gap between them, so
// every piece is a whole run.
func (l Layout) walk(s Section, yield func(Run)) {
	if len(s.Dims) != len(l.Extents) {
		panic("sections: Runs rank mismatch")
	}
	if s.Empty() {
		return
	}
	addr, stride, top := l.Base, l.ElemSize, l.ElemSize
	for d, dim := range s.Dims {
		ext := l.Extents[d]
		for _, i := range [...]int{dim.Lo, dim.Hi} {
			if i < 1 || i > ext {
				panic(fmt.Sprintf("sections: index %d out of range 1..%d in dim %d", i, ext, d))
			}
		}
		addr += (dim.Lo - 1) * stride
		top, stride = stride, stride*ext
	}
	p := pieces{dims: s.Dims, extents: l.Extents, bytes: l.ElemSize, yield: yield}
	for p.inner < len(s.Dims) && s.Dims[p.inner] == (Dim{1, l.Extents[p.inner]}) {
		p.bytes *= l.Extents[p.inner]
		p.inner++
	}
	if p.inner < len(s.Dims) {
		p.bytes *= s.Dims[p.inner].Count()
		p.inner++
	}
	p.place(len(s.Dims)-1, addr, top)
}

// pieces places a section's pieces: the dimensions below inner lie
// inside one piece of the given bytes.
type pieces struct {
	dims    []Dim
	extents []int
	inner   int
	bytes   int
	yield   func(Run)
}

// place yields the pieces of dimensions inner..d, the first at addr;
// stride is dimension d's byte stride.
func (p *pieces) place(d, addr, stride int) {
	if d < p.inner {
		p.yield(Run{Addr: addr, Bytes: p.bytes})
		return
	}
	next := stride / p.extents[d-1]
	for i := p.dims[d].Lo; i <= p.dims[d].Hi; i++ {
		p.place(d-1, addr, next)
		addr += stride
	}
}

// BlockAlign shrinks each run to whole coherence blocks — the paper's
// shmem_limits subsetting: the first block boundary at or after the
// start, the last boundary at or before the end. Runs smaller than one
// block vanish; their elements stay with the default protocol.
func BlockAlign(runs []Run, blockSize int) []Run {
	var out []Run
	for _, r := range runs {
		if in := r.interior(blockSize); in.N > 0 {
			out = append(out, Run{Addr: in.Start * blockSize, Bytes: in.N * blockSize})
		}
	}
	return out
}
