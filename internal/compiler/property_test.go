package compiler

import (
	"fmt"
	"math/rand"
	"testing"

	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/sections"
)

// TestPropertyScheduleCoverage generates random 2-D stencil loops over
// random distributions and processor counts and verifies the paper's
// fundamental soundness invariant by brute force: every element a
// processor reads is either owned by it or delivered by some transfer
// addressed to it; and every compiler-controlled block lies inside its
// transfer's section.
func TestPropertyScheduleCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		np := 2 + rng.Intn(7)
		n1 := 8 + rng.Intn(40)
		n2 := 8 + rng.Intn(40)
		kinds := []distribute.Kind{distribute.Block, distribute.Cyclic}
		distA := distribute.Spec{Kind: kinds[rng.Intn(2)]}
		distB := distA // anchor-aligned case most of the time
		if rng.Intn(3) == 0 {
			distB = distribute.Spec{Kind: kinds[rng.Intn(2)]}
		}
		if distA.Kind == distribute.Cyclic || distB.Kind == distribute.Cyclic {
			// Keep cyclic extents comfortably above np.
			if n2 < 2*np {
				n2 = 2 * np
			}
		}
		A := &ir.Array{Name: "a", Extents: []int{n1, n2}, Dist: distA}
		B := &ir.Array{Name: "b", Extents: []int{n1, n2}, Dist: distB}

		di := rng.Intn(3) - 1 // row offset -1..1
		dj := rng.Intn(5) - 2 // column offset -2..2
		lo2 := 1 + rng.Intn(3)
		hi2 := n2 - rng.Intn(3)
		lo1 := 1 + rng.Intn(2)
		hi1 := n1 - rng.Intn(2)
		// Keep subscripts in bounds.
		if lo1+di < 1 {
			lo1 = 1 - di
		}
		if hi1+di > n1 {
			hi1 = n1 - di
		}
		if lo2+dj < 1 {
			lo2 = 1 - dj
		}
		if hi2+dj > n2 {
			hi2 = n2 - dj
		}
		if lo1 > hi1 || lo2 > hi2 {
			continue
		}
		i, j := ir.V("i"), ir.V("j")
		loop := &ir.ParLoop{
			Label:   fmt.Sprintf("rand%d", trial),
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(lo1), ir.Aff(hi1)), ir.Idx("j", ir.Aff(lo2), ir.Aff(hi2))},
			Body: []*ir.Assign{{
				LHS: ir.Ref(A, i, j),
				RHS: ir.Ref(B, i.AddC(di), j.AddC(dj)),
			}},
		}
		prog := &ir.Program{Name: "rand", Params: map[string]int{}, Arrays: []*ir.Array{A, B},
			Body: []ir.Stmt{loop}}
		an, err := New(prog, np, buildLayouts(prog.Arrays), 128)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rule := an.LoopRuleOf(loop)
		env := map[string]int{}
		pt := an.Partition(loop, rule, env)
		sched := an.Schedule(loop, rule, env)
		dB := an.Dist(B)

		// Brute force: walk the iteration space per processor.
		for p := 0; p < np; p++ {
			var covered []sections.Section
			for _, tr := range sched.Reads {
				if tr.Receiver == p {
					covered = append(covered, tr.Sec)
				}
				if tr.Receiver == tr.Sender {
					t.Fatalf("trial %d: self transfer %v", trial, tr)
				}
			}
			for _, jr := range pt.Ranges[p] {
				for jj := jr[0]; jj <= jr[1]; jj++ {
					ri, rj := lo1+di, jj+dj // representative read row start
					_ = ri
					if rj < 1 || rj > n2 {
						continue
					}
					if dB.Owner(rj) == p {
						continue // owned column: local
					}
					for ii := lo1; ii <= hi1; ii++ {
						found := false
						for _, s := range covered {
							if s.Contains(ii+di, rj) {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("trial %d (np=%d n=%dx%d dist %v/%v off %d,%d): proc %d reads b(%d,%d) uncovered\nschedule: %v",
								trial, np, n1, n2, distA.Kind, distB.Kind, di, dj, p, ii+di, rj, sched.Reads)
						}
					}
				}
			}
		}

		// Block-alignment invariant: every compiler-controlled block's
		// bytes lie within the linearized section.
		layB := an.Layouts[B]
		for _, tr := range sched.Reads {
			runs := layB.Runs(tr.Sec)
			for _, br := range tr.Blocks {
				lo, hi := br.Start*128, (br.Start+br.N)*128
				inside := false
				for _, r := range runs {
					if lo >= r.Addr && hi <= r.End() {
						inside = true
						break
					}
				}
				if !inside {
					t.Fatalf("trial %d: block run %v of %v outside section runs %v", trial, br, tr, runs)
				}
			}
		}
	}
}

// TestPropertyPartitionCoversLoop checks that the per-processor
// partitions of random loops tile the iteration range exactly.
func TestPropertyPartitionCoversLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		np := 1 + rng.Intn(8)
		n := 4 + rng.Intn(60)
		kinds := []distribute.Kind{distribute.Block, distribute.Cyclic}
		A := &ir.Array{Name: "a", Extents: []int{4, n}, Dist: distribute.Spec{Kind: kinds[rng.Intn(2)]}}
		lo := 1 + rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		i, j := ir.V("i"), ir.V("j")
		loop := &ir.ParLoop{
			Label:   "p",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(4)), ir.Idx("j", ir.Aff(lo), ir.Aff(hi))},
			Body:    []*ir.Assign{{LHS: ir.Ref(A, i, j), RHS: ir.N(0)}},
		}
		prog := &ir.Program{Name: "p", Params: map[string]int{}, Arrays: []*ir.Array{A},
			Body: []ir.Stmt{loop}}
		an, err := New(prog, np, buildLayouts(prog.Arrays), 128)
		if err != nil {
			t.Fatal(err)
		}
		pt := an.Partition(loop, an.LoopRuleOf(loop), map[string]int{})
		seen := map[int]int{}
		d := an.Dist(A)
		for p := 0; p < np; p++ {
			for _, r := range pt.Ranges[p] {
				for j := r[0]; j <= r[1]; j++ {
					seen[j]++
					if d.Owner(j) != p {
						t.Fatalf("trial %d: j=%d assigned to %d but owned by %d", trial, j, p, d.Owner(j))
					}
				}
			}
		}
		for j := lo; j <= hi; j++ {
			if seen[j] != 1 {
				t.Fatalf("trial %d: j=%d covered %d times (range %d..%d, np=%d, %v)",
					trial, j, seen[j], lo, hi, np, d)
			}
		}
		if len(seen) != hi-lo+1 {
			t.Fatalf("trial %d: covered %d of %d iterations", trial, len(seen), hi-lo+1)
		}
	}
}
