package analysis

import (
	"cmp"
	"math"
	"slices"

	"hpfdsm/internal/sections"
)

// frameRun is a run of blocks [start, end) a node holds open, tagged
// with the barrier phase of the implicit_writable that opened them.
type frameRun struct {
	start, end int
	phase      int
}

// frames holds every node's open implicit_writable frames. A block is in
// at most one frame of its node — the earliest opening stands — so a
// node's frames are one list of runs, each tagged with its frame's
// phase: ascending, disjoint and non-empty, and two runs that abut carry
// different phases. A frame event replaces only the runs within its
// blocks' span, found by binary search; an arrival's query is one merge
// walk. The lists late and unopened return are the set's scratch, valid
// until the next call of the same method.
type frames struct {
	node [][]frameRun // per node: its open runs

	win                    []frameRun // an event's replacement for the runs its span touches
	lateRuns, unopenedRuns []sections.BlockRun
}

func newFrames(np int) frames { return frames{node: make([][]frameRun, np)} }

// firstEndAbove returns the index of the first run that ends past block
// b, that is, holds b or lies wholly beyond it.
func firstEndAbove(runs []frameRun, b int) int {
	i, _ := slices.BinarySearchFunc(runs, b+1, func(r frameRun, end int) int { return cmp.Compare(r.end, end) })
	return i
}

// firstStartAbove returns the index of the first run that starts past
// block b.
func firstStartAbove(runs []frameRun, b int) int {
	i, _ := slices.BinarySearchFunc(runs, b+1, func(r frameRun, start int) int { return cmp.Compare(r.start, start) })
	return i
}

// appendRun appends r to a list built in ascending order, extending the
// last run instead when r follows it directly in the same phase.
func appendRun(runs []frameRun, r frameRun) []frameRun {
	if k := len(runs) - 1; k >= 0 && runs[k].end == r.start && runs[k].phase == r.phase {
		runs[k].end = r.end
		return runs
	}
	return append(runs, r)
}

// open opens node n's frame at phase over the blocks it holds none open
// for, and reports whether there were any.
func (fs *frames) open(n, phase int, blocks []sections.BlockRun) bool {
	b := sections.Normalize(blocks)
	if len(b) == 0 {
		return false
	}
	// runs[i:j] overlap the blocks' span or abut it.
	runs := fs.node[n]
	i := firstEndAbove(runs, b[0].Start-1)
	j := i + firstStartAbove(runs[i:], b[len(b)-1].End())
	win, added := fs.win[:0], false
	k, hi := i, math.MinInt // runs[i:k] are in win and end at hi
	for _, r := range b {
		at, end := max(r.Start, hi), r.End()
		for ; k < j && runs[k].start < end; k++ {
			if runs[k].start > at {
				win, added = appendRun(win, frameRun{at, runs[k].start, phase}), true
			}
			win, hi = appendRun(win, runs[k]), runs[k].end
			at = max(at, hi)
		}
		if at < end {
			win, added = appendRun(win, frameRun{at, end, phase}), true
		}
	}
	for _, r := range runs[k:j] {
		win = appendRun(win, r)
	}
	fs.node[n], fs.win = slices.Replace(runs, i, j, win...), win
	return added
}

// close takes blocks out of node n's frames.
func (fs *frames) close(n int, blocks []sections.BlockRun) {
	b := sections.Normalize(blocks)
	if len(b) == 0 {
		return
	}
	// runs[i:j] overlap the blocks' span.
	runs := fs.node[n]
	i := firstEndAbove(runs, b[0].Start)
	j := i + firstStartAbove(runs[i:], b[len(b)-1].End()-1)
	win, k := fs.win[:0], 0
	for _, r := range runs[i:j] {
		lo := r.start
		for k < len(b) && b[k].End() <= lo {
			k++
		}
		for c := k; c < len(b) && b[c].Start < r.end; c++ {
			if b[c].Start > lo {
				win = append(win, frameRun{lo, b[c].Start, r.phase})
			}
			lo = max(lo, b[c].End())
		}
		if lo < r.end {
			win = append(win, frameRun{lo, r.end, r.phase})
		}
	}
	fs.node[n], fs.win = slices.Replace(runs, i, j, win...), win
}

// late returns the blocks of an arrival at node n in phase that no frame
// opened in an earlier phase covers. While no frame of n predates the
// arrival that is the arrival's own list, as it comes; otherwise it is
// canonical.
func (fs *frames) late(n, phase int, blocks []sections.BlockRun) []sections.BlockRun {
	runs := fs.node[n]
	if norm := sections.Normalize(blocks); !slices.Equal(norm, blocks) {
		if !slices.ContainsFunc(runs, func(r frameRun) bool { return r.phase < phase }) {
			return blocks
		}
		blocks = norm
	}
	fs.lateRuns = cut(fs.lateRuns[:0], blocks, runs, phase)
	return fs.lateRuns
}

// unopened returns the blocks of late, as late returned them, that no
// frame of node n covers.
func (fs *frames) unopened(n int, late []sections.BlockRun) []sections.BlockRun {
	fs.unopenedRuns = cut(fs.unopenedRuns[:0], sections.Normalize(late), fs.node[n], math.MaxInt)
	return fs.unopenedRuns
}

// cut appends to out the blocks of the canonical list a that no run of
// runs opened before phase holds.
func cut(out, a []sections.BlockRun, runs []frameRun, before int) []sections.BlockRun {
	j := 0
	for _, r := range a {
		lo, end := r.Start, r.End()
		j += firstEndAbove(runs[j:], lo)
		for k := j; k < len(runs) && runs[k].start < end; k++ {
			if runs[k].phase >= before {
				continue
			}
			if runs[k].start > lo {
				out = append(out, sections.BlockRun{Start: lo, N: runs[k].start - lo})
			}
			lo = max(lo, runs[k].end)
		}
		if lo < end {
			out = append(out, sections.BlockRun{Start: lo, N: end - lo})
		}
	}
	return out
}
