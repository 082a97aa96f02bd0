package sections

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBlockRunAlgebraAgainstMapOracle drives the run algebra with random
// lists — overlapping, adjacent, empty, unsorted runs over a small
// universe, so that every relation between two runs occurs — and checks
// each operation against the map[int]bool it replaced.
func TestBlockRunAlgebraAgainstMapOracle(t *testing.T) {
	const universe = 48
	rng := rand.New(rand.NewSource(21))
	randomRuns := func() []BlockRun {
		runs := make([]BlockRun, rng.Intn(7))
		for i := range runs {
			runs[i] = BlockRun{Start: rng.Intn(universe), N: rng.Intn(9)} // N == 0: an empty run
		}
		if len(runs) > 1 && rng.Intn(3) == 0 {
			runs[1].Start = runs[0].End() // adjacent on purpose
		}
		return runs
	}
	oracle := func(runs []BlockRun) map[int]bool {
		set := map[int]bool{}
		for _, r := range runs {
			for b := r.Start; b < r.Start+r.N; b++ {
				set[b] = true
			}
		}
		return set
	}
	// sameSet checks that got is canonical and holds exactly want.
	sameSet := func(op string, a, b, got []BlockRun, want map[int]bool) {
		t.Helper()
		for i, r := range got {
			if r.N <= 0 || i > 0 && r.Start <= got[i-1].End() {
				t.Fatalf("%s(%v, %v) = %v is not canonical at run %d", op, a, b, got, i)
			}
		}
		if CountBlocks(got) != len(want) {
			t.Fatalf("%s(%v, %v) = %v holds %d blocks, the oracle %d", op, a, b, got, CountBlocks(got), len(want))
		}
		for blk := -1; blk <= universe+9; blk++ {
			if ContainsBlock(got, blk) != want[blk] {
				t.Fatalf("%s(%v, %v) = %v: block %d, the oracle says %v", op, a, b, got, blk, want[blk])
			}
		}
		if blocks := Blocks(got); len(blocks) != len(want) || !slices.IsSorted(blocks) {
			t.Fatalf("%s(%v, %v) = %v enumerates as %v", op, a, b, got, blocks)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := randomRuns(), randomRuns()
		a0, b0 := slices.Clone(a), slices.Clone(b)
		sa, sb := oracle(a), oracle(b)

		sameSet("Normalize", a, nil, Normalize(a), sa)
		union, minus := map[int]bool{}, map[int]bool{}
		for blk := range sa {
			union[blk] = true
			if !sb[blk] {
				minus[blk] = true
			}
		}
		for blk := range sb {
			union[blk] = true
		}
		sameSet("Union", a, b, Union(a, b), union)
		sameSet("Minus", a, b, Minus(a, b), minus)
		for blk := -1; blk <= universe+9; blk++ {
			if ContainsBlock(a, blk) != sa[blk] {
				t.Fatalf("ContainsBlock(%v, %d) = %v", a, blk, !sa[blk])
			}
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			t.Fatalf("an operation wrote to its operand: %v became %v, %v became %v", a0, a, b0, b)
		}
	}
}

// TestAppendBlockBuildsCanonicalRuns: ascending blocks, gaps or not,
// come out as the canonical list.
func TestAppendBlockBuildsCanonicalRuns(t *testing.T) {
	var runs []BlockRun
	for _, b := range []int{3, 4, 5, 9, 11, 12} {
		runs = AppendBlock(runs, b)
	}
	if want := []BlockRun{{3, 3}, {9, 1}, {11, 2}}; !slices.Equal(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
}
