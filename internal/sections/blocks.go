package sections

import "slices"

// BlockRun is a contiguous range of coherence blocks [Start, Start+N).
//
// A set of blocks is a list of runs: shmem_limits shrinks a section to
// contiguous ranges of blocks and every Section 4.2 call takes such
// ranges, so the compiler, the verifier and the run time keep and
// compare sets in that form and never one block at a time. A list is
// canonical when its runs are non-empty, ascending, and neither overlap
// nor abut; Normalize makes any list canonical, and the set operations
// accept any list and return canonical ones. They never write to their
// operands, and a result may share its operand's memory.
type BlockRun struct {
	Start int
	N     int
}

// End returns the block after the run's last.
func (r BlockRun) End() int { return r.Start + r.N }

// AppendBlock adds block b to a list of runs built in ascending block
// order: it extends the last run when b follows it directly, and starts
// a new run otherwise.
func AppendBlock(runs []BlockRun, b int) []BlockRun {
	if k := len(runs) - 1; k >= 0 && runs[k].End() == b {
		runs[k].N++
		return runs
	}
	return append(runs, BlockRun{Start: b, N: 1})
}

// canonical reports whether runs is in canonical form.
func canonical(runs []BlockRun) bool {
	for i, r := range runs {
		if r.N <= 0 || i > 0 && r.Start <= runs[i-1].End() {
			return false
		}
	}
	return true
}

// Normalize returns the canonical form of the set runs lists: sorted,
// empty runs dropped, overlapping and adjacent runs merged. A list
// already canonical is returned as it is, any other made so in a copy.
func Normalize(runs []BlockRun) []BlockRun {
	if canonical(runs) {
		return runs
	}
	return NormalizeInPlace(slices.Clone(runs))
}

// NormalizeInPlace is Normalize in the memory of runs, a list the caller
// owns: the result is runs[:k] for some k, and what runs held is lost.
func NormalizeInPlace(runs []BlockRun) []BlockRun {
	if canonical(runs) {
		return runs
	}
	slices.SortFunc(runs, func(a, b BlockRun) int { return a.Start - b.Start })
	out := runs[:0]
	for _, r := range runs {
		if r.N <= 0 {
			continue
		}
		if k := len(out) - 1; k >= 0 && r.Start <= out[k].End() {
			out[k].N = max(out[k].End(), r.End()) - out[k].Start
			continue
		}
		out = append(out, r)
	}
	return out
}

// Union returns the blocks in a or in b.
func Union(a, b []BlockRun) []BlockRun {
	switch {
	case len(a) == 0:
		return Normalize(b)
	case len(b) == 0:
		return Normalize(a)
	}
	return Normalize(append(slices.Clone(a), b...))
}

// Minus returns the blocks of a that are not in b.
func Minus(a, b []BlockRun) []BlockRun {
	a, b = Normalize(a), Normalize(b)
	var out []BlockRun
	cut := false // some run of a has lost a block: out holds the result so far
	j := 0
	for i, r := range a {
		for j < len(b) && b[j].End() <= r.Start {
			j++
		}
		if !cut {
			if j == len(b) || b[j].Start >= r.End() {
				continue
			}
			cut, out = true, append(out, a[:i]...)
		}
		lo := r.Start
		for k := j; k < len(b) && b[k].Start < r.End(); k++ {
			if b[k].Start > lo {
				out = append(out, BlockRun{Start: lo, N: b[k].Start - lo})
			}
			lo = b[k].End()
		}
		if lo < r.End() {
			out = append(out, BlockRun{Start: lo, N: r.End() - lo})
		}
	}
	if !cut {
		return a
	}
	return out
}

// CountBlocks returns the number of blocks the runs hold; a block that
// several runs of a non-canonical list hold counts once for each.
func CountBlocks(runs []BlockRun) int {
	n := 0
	for _, r := range runs {
		n += r.N
	}
	return n
}

// ContainsBlock reports whether some run holds block b.
func ContainsBlock(runs []BlockRun, b int) bool {
	for _, r := range runs {
		if r.Start <= b && b < r.End() {
			return true
		}
	}
	return false
}

// Blocks lists the runs' block numbers in list order, for a diagnostic
// that names single blocks.
func Blocks(runs []BlockRun) []int {
	var out []int
	for _, r := range runs {
		for b := r.Start; b < r.End(); b++ {
			out = append(out, b)
		}
	}
	return out
}
