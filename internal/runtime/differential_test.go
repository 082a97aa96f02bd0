package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
)

// randProgram generates a random but well-formed multi-array stencil
// program: 2-4 arrays, 2-4 loops per time step with random offsets,
// occasionally a reduction, random distributions. One in four programs
// is three-dimensional (plane stencils, as in pde); one in three of the
// others gathers columns through an index array.
func randProgram(rng *rand.Rand) *ir.Program {
	if rng.Intn(4) == 0 {
		return randProgram3D(rng)
	}
	return randProgram2D(rng)
}

// randProgram3D builds a pde-shaped random program: 3-D arrays with
// the last dimension distributed, plane-shifted reads.
func randProgram3D(rng *rand.Rand) *ir.Program {
	n := 10 + 2*rng.Intn(6) // 10..20 per dimension
	iters := 1 + rng.Intn(2)
	kinds := []distribute.Kind{distribute.Block, distribute.Block, distribute.Cyclic}
	A := &ir.Array{Name: "a0", Extents: []int{n, n, n}, Dist: distribute.Spec{Kind: kinds[rng.Intn(3)]}}
	B := &ir.Array{Name: "a1", Extents: []int{n, n, n}, Dist: distribute.Spec{Kind: kinds[rng.Intn(3)]}}
	i, j, k := ir.V("i"), ir.V("j"), ir.V("k")
	init := &ir.ParLoop{
		Label: "init",
		Indexes: []ir.Index{
			ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n)), ir.Idx("k", ir.Aff(1), ir.Aff(n))},
		Body: []*ir.Assign{
			{LHS: ir.Ref(A, i, j, k), RHS: ir.Plus(ir.Iv("i"), ir.Plus(ir.Times(ir.N(2), ir.Iv("j")), ir.Iv("k")))},
			{LHS: ir.Ref(B, i, j, k), RHS: ir.N(0)},
		},
	}
	dk := rng.Intn(3) - 1
	di := rng.Intn(3) - 1
	lo := 1 + maxAbs(dk, di)
	hi := n - maxAbs(dk, di)
	sweep := &ir.ParLoop{
		Label: "sweep3d",
		Indexes: []ir.Index{
			ir.Idx("i", ir.Aff(lo), ir.Aff(hi)), ir.Idx("j", ir.Aff(lo), ir.Aff(hi)), ir.Idx("k", ir.Aff(lo), ir.Aff(hi))},
		Body: []*ir.Assign{{
			LHS: ir.Ref(B, i, j, k),
			RHS: ir.Plus(
				ir.Times(ir.N(0.5), ir.Ref(A, i.AddC(di), j, k.AddC(dk))),
				ir.Times(ir.N(0.25), ir.Ref(A, i, j, k))),
		}},
	}
	back := &ir.ParLoop{
		Label: "back3d",
		Indexes: []ir.Index{
			ir.Idx("i", ir.Aff(lo), ir.Aff(hi)), ir.Idx("j", ir.Aff(lo), ir.Aff(hi)), ir.Idx("k", ir.Aff(lo), ir.Aff(hi))},
		Body: []*ir.Assign{{LHS: ir.Ref(A, i, j, k), RHS: ir.Ref(B, i, j, k)}},
	}
	return &ir.Program{
		Name:   "rand3d",
		Params: map[string]int{"n": n},
		Arrays: []*ir.Array{A, B},
		Body: []ir.Stmt{
			init,
			&ir.StartTimer{},
			&ir.SeqLoop{Var: "t", Lo: ir.Aff(1), Hi: ir.Aff(iters), Body: []ir.Stmt{sweep, back}},
		},
	}
}

func randProgram2D(rng *rand.Rand) *ir.Program {
	n := 24 + 8*rng.Intn(6) // 24..64
	iters := 1 + rng.Intn(3)
	nArr := 2 + rng.Intn(3)
	kinds := []distribute.Kind{distribute.Block, distribute.Block, distribute.Cyclic}

	var arrays []*ir.Array
	for a := 0; a < nArr; a++ {
		arrays = append(arrays, &ir.Array{
			Name:    fmt.Sprintf("a%d", a),
			Extents: []int{n, n},
			Dist:    distribute.Spec{Kind: kinds[rng.Intn(len(kinds))]},
		})
	}
	i, j := ir.V("i"), ir.V("j")

	// Init: every array gets a distinct affine fill.
	var initBody []*ir.Assign
	for a, arr := range arrays {
		initBody = append(initBody, &ir.Assign{
			LHS: ir.Ref(arr, i, j),
			RHS: ir.Plus(ir.Times(ir.N(float64(a+1)), ir.Iv("i")), ir.Iv("j")),
		})
	}
	var init ir.Stmt = &ir.ParLoop{
		Label:   "init",
		Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n))},
		Body:    initBody,
	}

	// Time step: loops writing one array from shifted reads of others.
	var step []ir.Stmt
	nLoops := 2 + rng.Intn(3)
	for l := 0; l < nLoops; l++ {
		dst := arrays[rng.Intn(nArr)]
		src1 := arrays[rng.Intn(nArr)]
		src2 := arrays[rng.Intn(nArr)]
		// Keep FORALL semantics safe: sources must differ from dst, or
		// use identical subscripts.
		d1 := rng.Intn(5) - 2
		d2 := rng.Intn(3) - 1
		if src1 == dst {
			d1 = 0
		}
		if src2 == dst {
			d2 = 0
		}
		lo := 1 + maxAbs(d1, d2)
		hi := n - maxAbs(d1, d2)
		body := []*ir.Assign{{
			LHS: ir.Ref(dst, i, j),
			RHS: ir.Plus(
				ir.Times(ir.N(0.5), ir.Ref(src1, i, j.AddC(d1))),
				ir.Times(ir.N(0.25), ir.Ref(src2, i.AddC(d2), j))),
		}}
		// Occasionally a second, misaligned assignment: a non-owner
		// write exercising the flush path. Its target must not be read
		// or written elsewhere in this loop (FORALL hazard) — use a
		// dedicated array and a shifted column (keeping j+1 in range).
		if rng.Intn(3) == 0 && nArr >= 3 {
			w := arrays[nArr-1]
			if w != dst && w != src1 && w != src2 {
				if hi > n-1 {
					hi = n - 1
				}
				body = append(body, &ir.Assign{
					LHS: ir.Ref(w, i, j.AddC(1)),
					RHS: ir.Times(ir.N(0.125), ir.Ref(dst, i, j)),
				})
			}
		}
		ixJ := ir.Idx("j", ir.Aff(lo), ir.Aff(hi))
		if rng.Intn(4) == 0 {
			ixJ = ir.IdxStep("j", ir.Aff(lo), ir.Aff(hi), 2) // red-black style
		}
		step = append(step, &ir.ParLoop{
			Label:   fmt.Sprintf("loop%d", l),
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(lo), ir.Aff(hi)), ixJ},
			Body:    body,
		})
	}
	// One program in three also gathers: dst(i,j) = src(i, idx(j)) with
	// idx an in-range permutation of the columns (the multiplier is
	// coprime to every n this generator draws), so the loop reads
	// columns no affine analysis can name.
	if rng.Intn(3) == 0 {
		idx := &ir.Array{Name: "idx", Extents: []int{n}, Dist: distribute.Spec{Kind: kinds[rng.Intn(len(kinds))]}}
		mul, add := []float64{11, 13, 17}[rng.Intn(3)], float64(rng.Intn(n))
		fill := &ir.ParLoop{
			Label:   "fillidx",
			Indexes: []ir.Index{ir.Idx("j", ir.Aff(1), ir.Aff(n))},
			Body: []*ir.Assign{{LHS: ir.Ref(idx, j), RHS: ir.Plus(ir.N(1),
				ir.Call{Fn: "MOD", Args: []ir.Expr{ir.Plus(ir.Times(ir.N(mul), ir.Iv("j")), ir.N(add)), ir.N(float64(n))}})}},
		}
		d := rng.Intn(nArr)
		src := arrays[(d+1+rng.Intn(nArr-1))%nArr] // never the destination
		step = append(step, &ir.ParLoop{
			Label:   "gather",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n))},
			Body: []*ir.Assign{{LHS: ir.Ref(arrays[d], i, j),
				RHS: ir.Indirect{Array: src, Subs: []ir.Expr{ir.Iv("i"), ir.Ref(idx, j)}}}},
		})
		arrays = append(arrays, idx)
		init = &ir.Block{Body: []ir.Stmt{init, fill}}
	}
	scalars := []string{}
	if rng.Intn(2) == 0 {
		scalars = append(scalars, "s")
		step = append(step, &ir.Reduce{
			Label: "red", Op: ir.RedSum, Target: "s",
			Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n)), ir.Idx("j", ir.Aff(1), ir.Aff(n))},
			Expr:    ir.Ref(arrays[0], i, j),
		})
	}

	return &ir.Program{
		Name:    "rand",
		Params:  map[string]int{"n": n},
		Arrays:  arrays,
		Scalars: scalars,
		Body: []ir.Stmt{
			init,
			&ir.StartTimer{},
			&ir.SeqLoop{Var: "t", Lo: ir.Aff(1), Hi: ir.Aff(iters), Body: step},
		},
	}
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if b > a {
		return b
	}
	return a
}

// TestDifferentialRandomPrograms runs random programs on the optimized
// 8-node DSM (and the message-passing backend) and compares every
// array against a 1-node run of the same program — end-to-end
// differential validation of analysis, schedules, protocol, and
// executors on shapes no one hand-picked.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	gathers := 0
	for trial := 0; trial < trials; trial++ {
		prog := randProgram(rng)
		if ir.HasIndirect(prog) {
			gathers++
		}
		ref, err := Run(prog, Options{Machine: config.Default().WithNodes(1), Opt: compiler.OptNone})
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		for _, variant := range []Options{
			{Machine: config.Default(), Opt: compiler.OptRTElim},
			{Machine: config.Default().WithNodes(5), Opt: compiler.OptBulk},
			{Machine: config.Default().WithCPUMode(config.SingleCPU), Opt: compiler.OptPRE},
			{Machine: config.Default(), Backend: MessagePassing},
			{Machine: config.Default().WithNodes(3), Opt: compiler.OptRTElim, EdgePrefetch: true},
		} {
			// Re-generate the identical program for an independent run
			// (a Program instance binds to one run's layouts).
			progV := regen(t, trial)
			if variant.Backend == MessagePassing && ir.HasIndirect(progV) {
				continue // Run refuses: not amenable to message passing
			}
			res, err := Run(progV, variant)
			if err != nil {
				t.Fatalf("trial %d variant %+v: %v", trial, variant, err)
			}
			for _, arr := range prog.Arrays {
				want := ref.ArrayData(arr.Name)
				got := res.ArrayData(arr.Name)
				for k := range want {
					if diff := abs(got[k] - want[k]); diff > 1e-9 {
						t.Fatalf("trial %d variant %+v: %s[%d] = %v, want %v",
							trial, variant, arr.Name, k, got[k], want[k])
					}
				}
			}
		}
	}
	if gathers == 0 {
		t.Fatal("no generated program gathers through an index array")
	}
}

// regen rebuilds the identical random program for a trial by replaying
// the deterministic generator from the start.
func regen(t *testing.T, trial int) *ir.Program {
	t.Helper()
	// Deterministically re-derive: replay the generator from the start
	// up to this trial.
	rng := rand.New(rand.NewSource(20260705))
	var prog *ir.Program
	for i := 0; i <= trial; i++ {
		prog = randProgram(rng)
	}
	return prog
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
