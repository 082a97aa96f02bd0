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

// Runs linearizes a section into contiguous address runs in ascending
// address order. Leading dimensions covered in full merge into longer
// runs (a whole-columns section of a 2-D array is a single run).
func (l Layout) Runs(s Section) []Run {
	if len(s.Dims) != len(l.Extents) {
		panic("sections: Runs rank mismatch")
	}
	if s.Empty() {
		return nil
	}
	// Longest contiguous prefix: full leading dims, then one possibly
	// partial dim terminates the run.
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

	// Iterate the outer dimensions k..rank-1.
	outer := s.Dims[k:]
	idx := make([]int, len(outer))
	for d := range outer {
		idx[d] = outer[d].Lo
	}
	// Address of the run start for the current outer index combination.
	start := func() int {
		full := make([]int, len(l.Extents))
		for d := 0; d < k; d++ {
			full[d] = s.Dims[d].Lo
		}
		copy(full[k:], idx)
		return l.Addr(full...)
	}
	var runs []Run
	for {
		runs = append(runs, Run{Addr: start(), Bytes: runBytes})
		// Advance outer indices (odometer).
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
	// Coalesce adjacent runs (outer iteration produces ascending,
	// possibly abutting runs).
	return CoalesceRuns(runs)
}

// CoalesceRuns sorts runs by address and merges abutting or overlapping
// ones.
func CoalesceRuns(runs []Run) []Run {
	if len(runs) <= 1 {
		return runs
	}
	sorted := make([]Run, len(runs))
	copy(sorted, runs)
	for i := 1; i < len(sorted); i++ { // insertion sort: inputs are mostly ordered
		for j := i; j > 0 && sorted[j].Addr < sorted[j-1].Addr; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
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

// BlockAlign shrinks each run to whole coherence blocks — the paper's
// shmem_limits subsetting: the first block boundary at or after the
// start, the last boundary at or before the end. Runs smaller than one
// block vanish; their elements stay with the default protocol.
func BlockAlign(runs []Run, blockSize int) []Run {
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

// RunsToBlocks converts block-aligned runs into runs of blocks.
func RunsToBlocks(runs []Run, blockSize int) []BlockRun {
	var out []BlockRun
	for _, r := range runs {
		if r.Addr%blockSize != 0 || r.Bytes%blockSize != 0 {
			panic(fmt.Sprintf("sections: run %+v is not block aligned", r))
		}
		out = append(out, BlockRun{Start: r.Addr / blockSize, N: r.Bytes / blockSize})
	}
	return out
}
