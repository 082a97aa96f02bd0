package ir

import (
	"testing"
	"testing/quick"

	"hpfdsm/internal/distribute"
)

func TestAffArithmetic(t *testing.T) {
	// 2*i + j - i + 3 == i + j + 3
	e := V("i").Scale(2).Add(V("j")).Sub(V("i")).AddC(3)
	if e.Coef("i") != 1 || e.Coef("j") != 1 || e.Const != 3 {
		t.Fatalf("normalized = %v", e)
	}
	env := map[string]int{"i": 10, "j": 20}
	if e.Eval(env) != 33 {
		t.Fatalf("eval = %d", e.Eval(env))
	}
}

func TestAffCancellation(t *testing.T) {
	e := V("k").Sub(V("k"))
	if !e.IsConst() || e.Const != 0 {
		t.Fatalf("k-k = %v", e)
	}
}

// TestAffEqualMatchesText: over canonical expressions, Equal is exactly
// the equality of their printed forms, which it replaced as the
// compiler's identity test; a term order only a literal can produce
// still compares by value.
func TestAffEqualMatchesText(t *testing.T) {
	f := func(a, b, c, x, y, z int8) bool {
		e := V("i").Scale(int(a) % 3).Add(V("j").Scale(int(b) % 3)).AddC(int(c) % 3)
		g := V("i").Scale(int(x) % 3).Add(V("j").Scale(int(y) % 3)).AddC(int(z) % 3)
		return e.Equal(g) == (e.String() == g.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	swapped := AffExpr{Const: 1, Terms: []Term{{"j", 1}, {"i", 2}}}
	if !swapped.Equal(V("i").Scale(2).Add(V("j")).AddC(1)) || swapped.Equal(V("i").Add(V("j")).AddC(1)) {
		t.Fatal("Equal does not compare term lists by value")
	}
}

func TestAffUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	V("x").Eval(map[string]int{})
}

func TestAffString(t *testing.T) {
	cases := map[string]AffExpr{
		"0":     Aff(0),
		"5":     Aff(5),
		"i":     V("i"),
		"i+1":   V("i").AddC(1),
		"2*i-3": V("i").Scale(2).AddC(-3),
		"i+j+1": V("i").Add(V("j")).AddC(1),
	}
	for want, e := range cases {
		if e.String() != want {
			t.Errorf("String(%#v) = %q, want %q", e, e.String(), want)
		}
	}
}

func TestPropertyAffEvalLinear(t *testing.T) {
	f := func(a, b int8, i, j int8) bool {
		e := V("i").Scale(int(a)).Add(V("j").Scale(int(b)))
		env := map[string]int{"i": int(i), "j": int(j)}
		return e.Eval(env) == int(a)*int(i)+int(b)*int(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayBasics(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{100, 200}, Dist: distribute.Spec{Kind: distribute.Block}}
	if a.Rank() != 2 || a.Elems() != 20000 || a.LastExtent() != 200 {
		t.Fatal("array geometry wrong")
	}
}

func TestRefRankMismatchPanics(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{10, 10}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ref(a, V("i"))
}

func TestOpsCounting(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{10}}
	// 0.25*(a(i-1)+a(i+1)) = 2 loads + 2 adds... : Mul(Num, Plus(ref,ref))
	e := Times(N(0.25), Plus(Ref(a, V("i").AddC(-1)), Ref(a, V("i").AddC(1))))
	if n := Flops(e, nil); n != 4 { // mul + add + 2 loads
		t.Fatalf("ops = %d", n)
	}
	red := InnerRed{Op: RedSum, Var: "k", Lo: Aff(1), Hi: Aff(10), Body: Times(Ref(a, V("k")), Ref(a, V("k")))}
	if n := Flops(red, nil); n != 10*(1+3) {
		t.Fatalf("inner red ops = %d", n)
	}
}

func TestRefsCollection(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{10}}
	b := &Array{Name: "b", Extents: []int{10}}
	e := Plus(Ref(a, V("i")), InnerRed{Op: RedSum, Var: "k", Lo: Aff(1), Hi: Aff(5),
		Body: Times(Ref(b, V("k")), Ref(a, V("k")))})
	refs := Refs(e)
	if len(refs) != 3 {
		t.Fatalf("refs = %v", refs)
	}
}

func TestProgramLookup(t *testing.T) {
	a := &Array{Name: "x", Extents: []int{4}}
	p := &Program{Name: "t", Params: map[string]int{"n": 4}, Arrays: []*Array{a}}
	if p.ArrayByName("x") != a || p.ArrayByName("y") != nil {
		t.Fatal("ArrayByName wrong")
	}
	if p.Param("n") != 4 {
		t.Fatal("Param wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing param should panic")
		}
	}()
	p.Param("zzz")
}

func TestIndexStep(t *testing.T) {
	if Idx("i", Aff(1), Aff(5)).StepOr1() != 1 {
		t.Fatal("default step")
	}
	if IdxStep("i", Aff(1), Aff(5), 2).StepOr1() != 2 {
		t.Fatal("explicit step")
	}
}

func TestOpStrings(t *testing.T) {
	if Add.String() != "+" || Div.String() != "/" {
		t.Fatal("binop strings")
	}
	if RedSum.String() != "SUM" || RedMin.String() != "MIN" {
		t.Fatal("redop strings")
	}
	if Lt.String() != "<" || Ge.String() != ">=" {
		t.Fatal("cmpop strings")
	}
}

func TestIndirectExpr(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{10}}
	ix := &Array{Name: "ix", Extents: []int{10}}
	ind := Indirect{Array: a, Subs: []Expr{Ref(ix, V("i"))}}
	if n := Flops(ind, nil); n < 3 {
		t.Fatalf("indirect ops = %d", n)
	}
	// Walk reaches the inner reference.
	refs := Refs(ind)
	if len(refs) != 1 || refs[0].Array != ix {
		t.Fatalf("refs through indirect = %v", refs)
	}
	if got := Indirects(Plus(ind, N(1))); len(got) != 1 {
		t.Fatalf("indirects = %v", got)
	}
}

func TestHasIndirect(t *testing.T) {
	a := &Array{Name: "a", Extents: []int{8}}
	mk := func(e Expr) *Program {
		return &Program{Name: "p", Params: map[string]int{}, Arrays: []*Array{a},
			Body: []Stmt{
				&SeqLoop{Var: "t", Lo: Aff(1), Hi: Aff(2), Body: []Stmt{
					&Block{Body: []Stmt{
						&ParLoop{Label: "l",
							Indexes: []Index{Idx("i", Aff(1), Aff(8))},
							Body:    []*Assign{{LHS: Ref(a, V("i")), RHS: e}}},
					}},
				}},
			}}
	}
	if HasIndirect(mk(N(1))) {
		t.Fatal("affine program flagged")
	}
	if !HasIndirect(mk(Indirect{Array: a, Subs: []Expr{N(3)}})) {
		t.Fatal("indirect program missed")
	}
	red := &Program{Name: "r", Params: map[string]int{}, Arrays: []*Array{a},
		Scalars: []string{"s"},
		Body: []Stmt{&Reduce{Op: RedSum, Target: "s",
			Indexes: []Index{Idx("i", Aff(1), Aff(8))},
			Expr:    Indirect{Array: a, Subs: []Expr{N(2)}}}}}
	if !HasIndirect(red) {
		t.Fatal("indirect in reduction missed")
	}
}

func TestTryEval(t *testing.T) {
	e := V("i").AddC(3)
	if v, ok := e.TryEval(map[string]int{"i": 4}); !ok || v != 7 {
		t.Fatalf("TryEval = %v %v", v, ok)
	}
	if _, ok := e.TryEval(map[string]int{}); ok {
		t.Fatal("unbound TryEval should fail")
	}
}

func TestMoreBuilders(t *testing.T) {
	if Flops(Over(N(1), N(2)), nil) != 1 {
		t.Fatal("Over")
	}
	a := &Array{Name: "a", Extents: []int{4, 4}}
	if a.String() == "" || Ref(a, V("i"), V("j")).String() != "a(i,j)" {
		t.Fatalf("strings: %q", Ref(a, V("i"), V("j")).String())
	}
}
