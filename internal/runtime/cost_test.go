package runtime

import (
	"os"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// dynOpsRef is the executor's per-element cost as it was before the
// model moved into ir.Flops, kept as the reference that function must
// equal: the static estimate (opsRef) with inner-reduction trip counts
// evaluated against the live environment where possible.
func dynOpsRef(env map[string]int, x ir.Expr) int {
	switch t := x.(type) {
	case ir.Bin:
		return 1 + dynOpsRef(env, t.L) + dynOpsRef(env, t.R)
	case ir.Call:
		n := 8
		for _, a := range t.Args {
			n += dynOpsRef(env, a)
		}
		return n
	case ir.InnerRed:
		trip := 16
		lo, okL := t.Lo.TryEval(env)
		hi, okH := t.Hi.TryEval(env)
		if okL && okH {
			trip = max(hi-lo+1, 0)
		}
		return trip * (1 + dynOpsRef(env, t.Body))
	default:
		return opsRef(x)
	}
}

// opsRef is the static estimate dynOpsRef falls back on: constant
// inner-reduction bounds, else 16 trips.
func opsRef(x ir.Expr) int {
	switch t := x.(type) {
	case ir.Num, ir.ScalarRef:
		return 0
	case ir.IdxVal, ir.ArrayRef:
		return 1
	case ir.Bin:
		return 1 + opsRef(t.L) + opsRef(t.R)
	case ir.Call:
		n := 8
		for _, a := range t.Args {
			n += opsRef(a)
		}
		return n
	case ir.Indirect:
		n := 2
		for _, s := range t.Subs {
			n += opsRef(s)
		}
		return n
	case ir.InnerRed:
		trip := 16
		if t.Lo.IsConst() && t.Hi.IsConst() {
			trip = max(t.Hi.Const-t.Lo.Const+1, 0)
		}
		return trip * (1 + opsRef(t.Body))
	}
	panic("opsRef: unknown expression")
}

// TestFlopsMatchesDynOps: ir.Flops prices every expression the
// executor prices — each loop body and reduction of the applications,
// storm.hpf and the loop-shape corpus, under the PARAMs with every
// enclosing sequential loop at its first and last trip and with
// nothing bound — as the executor's own model did, and so do the
// expressions built here to reach each case, an inner reduction inside
// an indirect subscript among them.
func TestFlopsMatchesDynOps(t *testing.T) {
	var progs []*ir.Program
	for _, a := range append(apps.All(), apps.Irregular()) {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	storm, err := os.ReadFile("../../benchmark/programs/storm.hpf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseWithOverrides(string(storm), map[string]int{"N": 64})
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, prog)
	for _, s := range append(loopShapes[:len(loopShapes):len(loopShapes)], operandOrder()) {
		progs = append(progs, s.program(t))
	}

	checked := 0
	check := func(where string, env map[string]int, x ir.Expr) {
		t.Helper()
		checked++
		if got, want := ir.Flops(x, env), dynOpsRef(env, x); got != want {
			t.Errorf("%s: Flops(%v, %v) = %d, the executor's model says %d", where, x, env, got, want)
		}
	}
	for _, prog := range progs {
		var walk func(body []ir.Stmt, env map[string]int)
		walk = func(body []ir.Stmt, env map[string]int) {
			for _, s := range body {
				switch st := s.(type) {
				case *ir.ParLoop:
					for _, as := range st.Body {
						check(prog.Name+" "+st.Label, env, as.RHS)
						check(prog.Name+" "+st.Label, nil, as.RHS)
					}
				case *ir.Reduce:
					check(prog.Name+" "+st.Label, env, st.Expr)
					check(prog.Name+" "+st.Label, nil, st.Expr)
				case *ir.Block:
					walk(st.Body, env)
				case *ir.SeqLoop:
					for _, at := range []ir.AffExpr{st.Lo, st.Hi} {
						inner := map[string]int{}
						for k, v := range env {
							inner[k] = v
						}
						inner[st.Var] = at.Eval(env)
						walk(st.Body, inner)
					}
				}
			}
		}
		walk(prog.Body, prog.Params)
	}

	a := &ir.Array{Name: "a", Extents: []int{64}}
	ix := &ir.Array{Name: "ix", Extents: []int{64}}
	upToT := func(body ir.Expr) ir.InnerRed {
		return ir.InnerRed{Op: ir.RedSum, Var: "k", Lo: ir.Aff(1), Hi: ir.V("t"), Body: body}
	}
	upTo4 := ir.InnerRed{Op: ir.RedSum, Var: "k", Lo: ir.Aff(1), Hi: ir.Aff(4), Body: ir.Ref(ix, ir.V("k"))}
	empty := ir.InnerRed{Op: ir.RedMax, Var: "k", Lo: ir.Aff(5), Hi: ir.Aff(2), Body: ir.Ref(a, ir.V("k"))}
	built := []ir.Expr{
		ir.N(1), ir.ScalarRef{Name: "s"}, ir.IdxVal{Name: "i"}, ir.Ref(a, ir.V("i")),
		ir.Call{Fn: "SQRT", Args: []ir.Expr{ir.Plus(ir.Ref(a, ir.V("i")), ir.N(2))}},
		ir.Indirect{Array: a, Subs: []ir.Expr{ir.Ref(ix, ir.V("i"))}},
		ir.Indirect{Array: a, Subs: []ir.Expr{upToT(ir.Ref(ix, ir.V("k")))}},
		ir.Indirect{Array: a, Subs: []ir.Expr{upTo4}},
		ir.Plus(upToT(ir.Indirect{Array: a, Subs: []ir.Expr{upToT(ir.Ref(ix, ir.V("k")))}}), upTo4),
		upToT(upToT(ir.Ref(a, ir.V("k")))),
		empty, upToT(empty),
	}
	for _, x := range built {
		for _, env := range []map[string]int{nil, {"t": 7}, {"t": -3}} {
			check("built", env, x)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d expressions priced: the corpus is not being walked", checked)
	}
}
