package runtime

import (
	"fmt"
	"strings"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// indirectPrelude declares the arrays the indirect-shape programs share
// and fills them: m is a permutation of 1..n, c(k,i) a table of K
// scattered partners per element, v and w data with exactly
// representable values (so sums are exact in any combination order).
const indirectPrelude = `
PROGRAM shapes
PARAM n = 64
PARAM kk = 3
SCALAR s
REAL v(n), x(n), m(n), c(kk, n)
REAL w(n, n), y(n, n)
DISTRIBUTE v(BLOCK)
DISTRIBUTE x(BLOCK)
DISTRIBUTE m(BLOCK)
DISTRIBUTE c(*, BLOCK)
DISTRIBUTE w(*, BLOCK)
DISTRIBUTE y(*, BLOCK)
FORALL (i = 1:n)
  m(i) = 1 + MOD(7 * i + 3, n)
  v(i) = 0.5 * i
  x(i) = 0
END FORALL
FORALL (k = 1:kk, i = 1:n)
  c(k, i) = 1 + MOD(i + 5 * k, n)
END FORALL
FORALL (i = 1:n, j = 1:n)
  w(i, j) = i + 100 * j
  y(i, j) = 0
END FORALL
STARTTIMER
`

// The Go side of the prelude (1-based, index 0 unused).
func indirectRef() (n, kk int, v []float64, m []int, c [][]int, w func(i, j int) float64) {
	n, kk = 64, 3
	v = make([]float64, n+1)
	m = make([]int, n+1)
	c = make([][]int, kk+1)
	for i := 1; i <= n; i++ {
		m[i] = 1 + (7*i+3)%n
		v[i] = 0.5 * float64(i)
	}
	for k := 1; k <= kk; k++ {
		c[k] = make([]int, n+1)
		for i := 1; i <= n; i++ {
			c[k][i] = 1 + (i+5*k)%n
		}
	}
	w = func(i, j int) float64 { return float64(i + 100*j) }
	return
}

// TestIndirectShapes runs the irregular expression shapes no shipped
// application contains — an indirect reference inside a reduction,
// inside an inner reduction (its subscript bound by the inner
// variable), nested through the index array twice, and with two
// indirect subscripts — and checks each against plain Go arithmetic,
// with the inspector off and on, sequentially and on two partitions.
func TestIndirectShapes(t *testing.T) {
	n, kk, v, m, c, w := indirectRef()
	cases := []struct {
		name, body string
		check      func(t *testing.T, r *Result)
	}{
		{"reduce", "REDUCE (SUM, s, i = 1:n) v(m(i)) * i", func(t *testing.T, r *Result) {
			want := 0.0
			for i := 1; i <= n; i++ {
				want += v[m[i]] * float64(i)
			}
			if got := r.Scalars["S"]; got != want {
				t.Errorf("s = %v, want %v", got, want)
			}
		}},
		{"inner-reduction", "FORALL (i = 1:n)\n  x(i) = SUM(k = 1:kk, v(c(k, i)) * k)\nEND FORALL", func(t *testing.T, r *Result) {
			for i, got := range r.ArrayData("X") {
				want := 0.0
				for k := 1; k <= kk; k++ {
					want += v[c[k][i+1]] * float64(k)
				}
				if got != want {
					t.Fatalf("x(%d) = %v, want %v", i+1, got, want)
				}
			}
		}},
		{"nested", "FORALL (i = 1:n)\n  x(i) = v(m(m(i))) + 1\nEND FORALL", func(t *testing.T, r *Result) {
			for i, got := range r.ArrayData("X") {
				if want := v[m[m[i+1]]] + 1; got != want {
					t.Fatalf("x(%d) = %v, want %v", i+1, got, want)
				}
			}
		}},
		{"two-subscripts", "FORALL (i = 1:n, j = 1:n)\n  y(i, j) = w(m(i), m(j))\nEND FORALL", func(t *testing.T, r *Result) {
			for k, got := range r.ArrayData("Y") {
				i, j := k%n+1, k/n+1
				if want := w(m[i], m[j]); got != want {
					t.Fatalf("y(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}},
	}
	for _, tc := range cases {
		prog, err := lang.Parse(indirectPrelude + tc.body + "\nEND\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, opt := range []Options{
			{Opt: compiler.OptNone},
			{Opt: compiler.OptRTElim},
			{Opt: compiler.OptNone, InspectIndirect: true},
			{Opt: compiler.OptRTElim, InspectIndirect: true},
			{Opt: compiler.OptRTElim, Partitions: 2},
			{Opt: compiler.OptRTElim, InspectIndirect: true, Partitions: 2},
		} {
			opt.Machine = config.Default()
			t.Run(fmt.Sprintf("%s/%v/inspect=%v/parts=%d", tc.name, opt.Opt, opt.InspectIndirect, opt.Partitions), func(t *testing.T) {
				r, err := Run(prog, opt)
				if err != nil {
					t.Fatal(err)
				}
				tc.check(t, r)
			})
		}
	}
}

// TestInspectorReachesInnerReduction: the inspector runs the inner
// reduction's range, so the gathers inside it are prefetched rather
// than demand-missed one by one.
func TestInspectorReachesInnerReduction(t *testing.T) {
	prog, err := lang.Parse(indirectPrelude + "FORALL (i = 1:n)\n  x(i) = SUM(k = 1:kk, v(c(k, i)))\nEND FORALL\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	misses := func(inspect bool) int64 {
		r, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, InspectIndirect: inspect})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.TotalMisses()
	}
	if plain, insp := misses(false), misses(true); insp >= plain {
		t.Fatalf("inspector did not reduce demand misses: %d -> %d", plain, insp)
	}
}

// faultProg is a one-loop program over v (and an index array m filled
// with i+shift), built by hand so that it can contain what the parser
// refuses: a scalar nothing declared, a symbol nothing binds.
func faultProg(shift int, rhs func(v, m *ir.Array) ir.Expr) *ir.Program {
	const n = 64
	mk := func(name string) *ir.Array {
		return &ir.Array{Name: name, Extents: []int{n}, Dist: distribute.Spec{Kind: distribute.Block}}
	}
	v, m, x := mk("V"), mk("M"), mk("X")
	i := ir.V("i")
	idx := []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(n))}
	return &ir.Program{Name: "faulty", Params: map[string]int{"n": n}, Arrays: []*ir.Array{v, m, x},
		Body: []ir.Stmt{
			&ir.ParLoop{Label: "init", Indexes: idx, Body: []*ir.Assign{
				{LHS: ir.Ref(m, i), RHS: ir.Plus(ir.Iv("i"), ir.N(float64(shift)))},
				{LHS: ir.Ref(v, i), RHS: ir.Iv("i")},
			}},
			&ir.ParLoop{Label: "gather", Indexes: idx, Body: []*ir.Assign{{LHS: ir.Ref(x, i), RHS: rhs(v, m)}}},
		}}
}

// rangeProg fills a, then gathers b(i, j) = a(i+di, j) over i = 1:n,
// j = jlo:jhi: a loop whose bounds can leave the arrays they index.
func rangeProg(jlo, jhi, di int) *ir.Program {
	const n = 64
	mk := func(name string) *ir.Array {
		return &ir.Array{Name: name, Extents: []int{n, n}, Dist: distribute.Spec{Kind: distribute.Block}}
	}
	a, b := mk("A"), mk("B")
	i, j := ir.V("i"), ir.V("j")
	rows := ir.Idx("i", ir.Aff(1), ir.Aff(n))
	return &ir.Program{Name: "faulty", Params: map[string]int{"n": n}, Arrays: []*ir.Array{a, b},
		Body: []ir.Stmt{
			&ir.ParLoop{Label: "init", Indexes: []ir.Index{rows, ir.Idx("j", ir.Aff(1), ir.Aff(n))},
				Body: []*ir.Assign{{LHS: ir.Ref(a, i, j), RHS: ir.Plus(ir.Iv("i"), ir.Iv("j"))}}},
			&ir.ParLoop{Label: "gather", Indexes: []ir.Index{rows, ir.Idx("j", ir.Aff(jlo), ir.Aff(jhi))},
				Body: []*ir.Assign{{LHS: ir.Ref(b, i, j), RHS: ir.Ref(a, i.AddC(di), j)}}},
		}}
}

// TestExecutorFaultsAreErrors: an error in the simulated program ends
// the run with one diagnostic naming program, statement, array or name,
// offending value and node — from both engines — instead of a panic
// out of the node's goroutine.
func TestExecutorFaultsAreErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *ir.Program
		want []string
	}{
		{"indirect-subscript", faultProg(1, func(v, m *ir.Array) ir.Expr {
			return ir.Indirect{Array: v, Subs: []ir.Expr{ir.Ref(m, ir.V("i"))}}
		}), []string{"node 7", "loop gather", "indirect subscript 65 out of range 1..64 for V"}},
		{"affine-subscript", faultProg(0, func(v, m *ir.Array) ir.Expr {
			return ir.Ref(v, ir.V("i").AddC(1))
		}), []string{"node 7", "loop gather", "affine subscript out of range for V", "dimension 1 reaches 65, not in 1..64"}},
		// a(i+1, j) for i = n is a(1, j+1) in memory: inside the array, outside
		// the dimension. It used to be read without a word.
		{"subscript-leaves-dimension", rangeProg(1, 63, 1),
			[]string{"loop gather", "affine subscript out of range for A", "dimension 1 reaches 65, not in 1..64"}},
		// j = 0 has no owner: this used to panic out of the partitioner.
		{"loop-bounds-leave-array", rangeProg(0, 64, 0),
			[]string{"loop gather", "loop over j drives B's distributed subscript out of range: 0..64 not in 1..64"}},
		{"undefined-scalar", faultProg(0, func(v, m *ir.Array) ir.Expr {
			return ir.Plus(ir.Ref(v, ir.V("i")), ir.S("ghost"))
		}), []string{"node 0", "loop gather", `undefined scalar "ghost"`}},
		{"unbound-symbol", faultProg(0, func(v, m *ir.Array) ir.Expr {
			return ir.Plus(ir.Ref(v, ir.V("i")), ir.Iv("q"))
		}), []string{"node 0", "loop gather", `unbound symbol "q"`}},
	}
	for _, tc := range cases {
		for _, parts := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/parts=%d", tc.name, parts), func(t *testing.T) {
				_, err := Run(tc.prog, Options{Machine: config.Default(), Opt: compiler.OptNone, Partitions: parts})
				if err == nil {
					t.Fatal("run succeeded")
				}
				msg := err.Error()
				for _, w := range append(tc.want, "(program faulty)") {
					if !strings.Contains(msg, w) {
						t.Errorf("error %q does not mention %q", msg, w)
					}
				}
				if strings.Contains(msg, "\n") {
					t.Errorf("error is not one line: %q", msg)
				}
			})
		}
	}
}

// TestInspectorSkipsOutOfRangeSubscript: the inspector is advisory, so
// it passes over a subscript it cannot locate and leaves the report to
// the executor phase.
func TestInspectorSkipsOutOfRangeSubscript(t *testing.T) {
	prog := faultProg(1, func(v, m *ir.Array) ir.Expr {
		return ir.Indirect{Array: v, Subs: []ir.Expr{ir.Ref(m, ir.V("i"))}}
	})
	_, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptRTElim, InspectIndirect: true})
	if err == nil || !strings.Contains(err.Error(), "indirect subscript 65 out of range 1..64 for V") {
		t.Fatalf("err = %v", err)
	}
}

// TestUncompilableProgramIsRejectedBeforeSimulating: a construct the
// executor has no code for is a Run error from compileProgram, which
// runs before any node process exists. Each program starts with a loop
// that faults the moment it is simulated, so getting the compile error
// (and not that fault) shows nothing was simulated.
func TestUncompilableProgramIsRejectedBeforeSimulating(t *testing.T) {
	cases := []struct {
		name string
		stmt func(v *ir.Array) ir.Stmt
		want string
	}{
		{"unknown-intrinsic", func(v *ir.Array) ir.Stmt { return fillLoop(v, ir.Call{Fn: "TANH", Args: []ir.Expr{ir.Iv("i")}}) },
			`loop fill: unknown intrinsic "TANH" with 1 argument(s)`},
		{"intrinsic-arity", func(v *ir.Array) ir.Stmt { return fillLoop(v, ir.Call{Fn: "SQRT"}) },
			`loop fill: unknown intrinsic "SQRT" with 0 argument(s)`},
		{"bad-operator", func(v *ir.Array) ir.Stmt { return fillLoop(v, ir.Bin{Op: ir.BinOp(9), L: ir.N(1), R: ir.N(2)}) },
			"loop fill: bad operator 9"},
		{"array-in-scalar-assignment", func(v *ir.Array) ir.Stmt {
			return &ir.ScalarAssign{Name: "s", RHS: ir.Ref(v, ir.Aff(1))}
		}, "scalar assignment to s: array reference V(1) in scalar context"},
		{"indirect-in-exit-test", func(v *ir.Array) ir.Stmt {
			return &ir.SeqLoop{Var: "t", Lo: ir.Aff(1), Hi: ir.Aff(2), Body: []ir.Stmt{
				&ir.ExitIf{L: ir.Indirect{Array: v, Subs: []ir.Expr{ir.S("s")}}, Op: ir.Lt, R: ir.N(0)}}}
		}, "exit test: array reference V(...) in scalar context"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := faultProg(1, func(v, m *ir.Array) ir.Expr {
				return ir.Indirect{Array: v, Subs: []ir.Expr{ir.Ref(m, ir.V("i"))}}
			})
			prog.Scalars = []string{"s"}
			prog.Body = append(prog.Body, tc.stmt(prog.Arrays[0]))
			_, err := Run(prog, Options{Machine: config.Default(), Opt: compiler.OptNone})
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "(program faulty)") {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func fillLoop(v *ir.Array, rhs ir.Expr) ir.Stmt {
	return &ir.ParLoop{Label: "fill", Indexes: []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(64))},
		Body: []*ir.Assign{{LHS: ir.Ref(v, ir.V("i")), RHS: rhs}}}
}
