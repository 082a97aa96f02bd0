package runtime

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// sameOutcome runs the program build makes twice — as compiled, and
// with the test seam oracle set — and requires the same outcome: the
// same error, or the same simulated time, per-node counters, scalars,
// reduction journal and array bits. what names the second run in
// failures. It reports whether the runs succeeded.
func sameOutcome(t testing.TB, name string, build func() *ir.Program, opt Options, oracle *bool, what string) bool {
	t.Helper()
	got, errG := Run(build(), opt)
	want, errW := func() (*Result, error) {
		*oracle = true
		defer func() { *oracle = false }()
		return Run(build(), opt)
	}()
	if errG != nil || errW != nil {
		if fmt.Sprint(errG) != fmt.Sprint(errW) {
			t.Fatalf("%s: as compiled the run ends in %v, %s in %v", name, errG, what, errW)
		}
		return false
	}
	if got.Elapsed != want.Elapsed {
		t.Fatalf("%s: elapsed %d as compiled, %d %s", name, got.Elapsed, want.Elapsed, what)
	}
	for i := range got.Stats.Nodes {
		if got.Stats.Nodes[i] != want.Stats.Nodes[i] {
			t.Fatalf("%s: node %d counters\n as compiled %+v\n %s %+v", name, i, got.Stats.Nodes[i], what, want.Stats.Nodes[i])
		}
	}
	sameBits := func(part string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values as compiled, %d %s", name, part, len(a), len(b), what)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v as compiled, %v %s", name, part, i, a[i], b[i], what)
			}
		}
	}
	for _, arr := range got.Prog.Arrays {
		sameBits(arr.Name, got.ArrayData(arr.Name), want.ArrayData(arr.Name))
	}
	sameBits("reduction journal", got.ReduceJournal(), want.ReduceJournal())
	for k, v := range got.Scalars {
		sameBits("scalar "+k, []float64{v}, []float64{want.Scalars[k]})
	}
	return true
}

// sameAsCheckedMode compares a run with every loop held in checked
// mode: the per-word path the strips must be indistinguishable from.
func sameAsCheckedMode(t testing.TB, name string, build func() *ir.Program, opt Options) bool {
	t.Helper()
	return sameOutcome(t, name, build, opt, &holdChecked, "in checked mode")
}

// sameAsUnfused compares a run with every statement compiled without
// superinstructions, op by op. Checked mode runs the same fused ops as
// the strips, so only this oracle sees a wrong fusion.
func sameAsUnfused(t testing.TB, name string, build func() *ir.Program, opt Options) bool {
	t.Helper()
	return sameOutcome(t, name, build, opt, &noFuse, "unfused")
}

// TestStripMatchesCheckedMode: the random programs of the differential
// suite and every pinned loop shape run the same in strips as with
// every access checked, at both ends of the optimization range and on
// both block geometries.
func TestStripMatchesCheckedMode(t *testing.T) {
	machines := []struct {
		name string
		mc   config.Machine
	}{
		{"n8b128", config.Default()},
		{"n5b32", config.Default().WithNodes(5).WithBlockSize(32)},
		{"single", config.Default().WithNodes(3).WithCPUMode(config.SingleCPU)},
	}
	levels := []compiler.Level{compiler.OptNone, compiler.OptRTElim}
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		for _, m := range machines {
			for _, lv := range levels {
				sameAsCheckedMode(t, fmt.Sprintf("trial %d/%v/%s", trial, lv, m.name),
					func() *ir.Program { return regen(t, trial) }, Options{Machine: m.mc, Opt: lv})
			}
		}
	}
	for _, s := range loopShapes {
		for _, m := range machines {
			for _, lv := range levels {
				sameAsCheckedMode(t, fmt.Sprintf("%s/%v/%s", s.name, lv, m.name),
					func() *ir.Program { return s.program(t) }, Options{Machine: m.mc, Opt: lv, InspectIndirect: true})
			}
		}
	}
}

// operandOrder is a shape whose statements compile to every
// superinstruction with each operator, the fused operand on each side:
// a wrong operand order or a wrong pairing changes c.
func operandOrder() loopShape {
	ops := []string{"+", "-", "*", "/"}
	x, y := "(2 + a(i, j))", "(b(i, j) - 0.25)" // a load right of a literal, and one left of one
	var body strings.Builder
	forall := func(rhs string) {
		fmt.Fprintf(&body, "\n  FORALL (i = 2:n-1, j = 1:n)\n    c(i, j) = %s\n  END FORALL", rhs)
	}
	for _, o1 := range ops {
		for _, o2 := range ops {
			forall(fmt.Sprintf("c(i, j) + ((%s %s %s) %s 4) + (4 %s (%s %s %s))", x, o1, y, o2, o2, x, o1, y))
		}
	}
	var loads []string
	for _, o := range ops {
		loads = append(loads, "(3 "+o+" a(i, j))", "(a(i, j) "+o+" 3)")
	}
	forall("c(i, j) + " + strings.Join(loads, " + "))
	for _, o := range ops {
		forall(fmt.Sprintf("(c(i, j) - %s) %s %s", x, o, y))
	}
	return loopShape{"operand-order", 64, "BLOCK", body.String()}
}

// TestFusedMatchesUnfused: the superinstructions change no result.
// Every loop shape, operandOrder, storm.hpf and the six applications at
// scaled size run the same, on both backends, as with every statement
// compiled op by op.
func TestFusedMatchesUnfused(t *testing.T) {
	type program struct {
		name  string
		build func() *ir.Program
	}
	var progs []program
	for _, s := range append(loopShapes[:len(loopShapes):len(loopShapes)], operandOrder()) {
		progs = append(progs, program{"shape " + s.name, func() *ir.Program { return s.program(t) }})
	}
	storm, err := os.ReadFile("../../benchmark/programs/storm.hpf")
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"storm", func() *ir.Program {
		prog, err := lang.ParseWithOverrides(string(storm), map[string]int{"N": 64})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}})
	for _, a := range apps.All() {
		progs = append(progs, program{a.Name, func() *ir.Program {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}})
	}
	for _, p := range progs {
		for _, backend := range []Backend{SharedMemory, MessagePassing} {
			if backend == MessagePassing && ir.HasIndirect(p.build()) {
				continue
			}
			name := fmt.Sprintf("%s/%v", p.name, backend)
			if !sameAsUnfused(t, name, p.build, Options{Machine: config.Default(), Opt: compiler.OptRTElim, Backend: backend}) {
				t.Fatalf("%s: the run failed", name)
			}
		}
	}
}

// fuzzShape is one point of FuzzLoopShapes' domain.
type fuzzShape struct {
	n1, n2       int // extents
	block, nodes int
	cyclic       bool
	ci, oi, oj   int // the read is a(ci*i + oi, j + oj)
	ob           int // and b(i + ob, j), which the loop is overwriting
	lo, step     int // i runs lo..n1 by step
	jlo, jhi     int // j runs jlo..jhi
}

// program builds: fill a and b; b(i, j) = 0.5*a(ci*i+oi, j+oj) + b(i+ob, j)
// over i = lo:n1:step, j = jlo:jhi; then a = b.
func (s fuzzShape) program() *ir.Program {
	kind := distribute.Block
	if s.cyclic {
		kind = distribute.Cyclic
	}
	A := &ir.Array{Name: "a", Extents: []int{s.n1, s.n2}, Dist: distribute.Spec{Kind: kind}}
	B := &ir.Array{Name: "b", Extents: []int{s.n1, s.n2}, Dist: distribute.Spec{Kind: kind}}
	i, j := ir.V("i"), ir.V("j")
	all := []ir.Index{ir.Idx("i", ir.Aff(1), ir.Aff(s.n1)), ir.Idx("j", ir.Aff(1), ir.Aff(s.n2))}
	return &ir.Program{
		Name:   "fuzz",
		Params: map[string]int{},
		Arrays: []*ir.Array{A, B},
		Body: []ir.Stmt{
			&ir.ParLoop{Label: "init", Indexes: all, Body: []*ir.Assign{
				{LHS: ir.Ref(A, i, j), RHS: ir.Plus(ir.Iv("i"), ir.Times(ir.N(3), ir.Iv("j")))},
				{LHS: ir.Ref(B, i, j), RHS: ir.Iv("j")},
			}},
			&ir.StartTimer{},
			&ir.ParLoop{Label: "shape",
				Indexes: []ir.Index{ir.IdxStep("i", ir.Aff(s.lo), ir.Aff(s.n1), s.step), ir.Idx("j", ir.Aff(s.jlo), ir.Aff(s.jhi))},
				Body: []*ir.Assign{{LHS: ir.Ref(B, i, j),
					RHS: ir.Plus(ir.Times(ir.N(0.5), ir.Ref(A, i.Scale(s.ci).AddC(s.oi), j.AddC(s.oj))), ir.Ref(B, i.AddC(s.ob), j))}}},
			&ir.ParLoop{Label: "back", Indexes: all, Body: []*ir.Assign{{LHS: ir.Ref(A, i, j), RHS: ir.Ref(B, i, j)}}},
		},
	}
}

// FuzzLoopShapes: over extents, block size, node count, distribution,
// the reads' coefficient and offsets (one of them into the array being
// written, a few iterations behind or ahead), the loop's bounds and the
// innermost step, a loop runs the same in strips as in checked mode and
// as compiled without superinstructions, and a subscript that leaves its
// dimension is an error from all three — never a panic, never a silent
// read of a neighbouring column — and a program/subscript error from the
// static verifier.
func FuzzLoopShapes(f *testing.F) {
	f.Add(uint8(40), uint8(24), uint8(4), uint8(8), false, int8(1), int8(-1), int8(1), uint8(2), uint8(1), uint8(0), uint8(1), int8(0))
	f.Add(uint8(50), uint8(7), uint8(2), uint8(5), true, int8(-1), int8(51), int8(0), uint8(1), uint8(3), uint8(0), uint8(0), int8(-1))
	f.Add(uint8(17), uint8(9), uint8(0), uint8(3), false, int8(2), int8(-1), int8(-1), uint8(1), uint8(2), uint8(1), uint8(0), int8(2))
	f.Add(uint8(16), uint8(16), uint8(3), uint8(4), false, int8(0), int8(5), int8(0), uint8(1), uint8(1), uint8(0), uint8(0), int8(0))
	f.Add(uint8(12), uint8(12), uint8(4), uint8(2), false, int8(1), int8(1), int8(0), uint8(1), uint8(1), uint8(0), uint8(0), int8(0)) // i+1 leaves the dimension, not the array
	f.Add(uint8(12), uint8(12), uint8(4), uint8(2), false, int8(1), int8(0), int8(1), uint8(0), uint8(1), uint8(0), uint8(0), int8(0)) // j+1 leaves the array
	f.Fuzz(func(t *testing.T, n1, n2, block, nodes uint8, cyclic bool, ci, oi, oj int8, lo, step, jlo, jtrim uint8, ob int8) {
		s := fuzzShape{
			n1: 1 + int(n1)%64, n2: 1 + int(n2)%40,
			block: 8 << (block % 5), nodes: 1 + int(nodes)%8, cyclic: cyclic,
			ci: int(ci) % 4, oi: int(oi), oj: int(oj) % 3, ob: int(ob) % 4,
			lo: 1 + int(lo)%4, step: 1 + int(step)%4,
		}
		s.jlo, s.jhi = 1+int(jlo)%3, s.n2-int(jtrim)%3
		mc := config.Default().WithNodes(s.nodes).WithBlockSize(s.block)
		// The reads' subscripts must stay inside their dimensions over the
		// iterations that run; when one does not, the run must have said so.
		ihi := s.lo + (s.n1-s.lo)/s.step*s.step
		first, last := s.ci*s.lo+s.oi, s.ci*ihi+s.oi
		want := s.lo > s.n1 || s.jlo > s.jhi ||
			min(first, last) >= 1 && max(first, last) <= s.n1 && s.jlo+s.oj >= 1 && s.jhi+s.oj <= s.n2 &&
				s.lo+s.ob >= 1 && ihi+s.ob <= s.n1
		for _, lv := range []compiler.Level{compiler.OptNone, compiler.OptRTElim} {
			name, opt := fmt.Sprintf("%+v/%v", s, lv), Options{Machine: mc, Opt: lv}
			sameAsUnfused(t, name, s.program, opt)
			if ok := sameAsCheckedMode(t, name, s.program, opt); ok != want {
				t.Fatalf("%+v/%v: run succeeded = %v, want %v: the reads span rows %d..%d and %d..%d of 1..%d, columns %d..%d of 1..%d",
					s, lv, ok, want, first, last, s.lo+s.ob, ihi+s.ob, s.n1, s.jlo+s.oj, s.jhi+s.oj, s.n2)
			}
		}
		// The verifier says so too, statically: program/subscript exactly
		// when the run fails.
		rep, err := analysis.Verify(s.program(), mc, compiler.OptNone)
		if err != nil {
			t.Fatal(err)
		}
		flagged := slices.ContainsFunc(rep.Diags, func(d analysis.Diag) bool { return d.Rule == analysis.RuleSubscript })
		if flagged == want {
			t.Fatalf("%+v: the verifier reports %s = %v, but the run succeeds = %v:\n%s", s, analysis.RuleSubscript, flagged, want, rep)
		}
	})
}

// loopBodyFixture is pde's relax statement on a one-node machine (see
// statementFixture).
func loopBodyFixture(tb testing.TB, mp bool) (pass func(), elems int) {
	return statementFixture(tb, "pde", map[string]int{"N": 34, "ITERS": 1}, "V", mp)
}

// statementFixture is the first statement of app that assigns array
// from more than one reference, on a one-node machine: every block is
// held read-write from the start, so nothing faults and an instance is
// the loop body alone. pass runs one instance of elems elements.
func statementFixture(tb testing.TB, app string, params map[string]int, array string, mp bool) (pass func(), elems int) {
	a, err := apps.ByName(app)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := a.Program(params)
	if err != nil {
		tb.Fatal(err)
	}
	mc := config.Default().WithNodes(1)
	sp, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, 1, layouts, mc.BlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	code, err := compileProgram(prog, layouts, mp)
	if err != nil {
		tb.Fatal(err)
	}
	cluster := tempest.NewCluster(sim.NewEnv(), sp)
	proto := protocol.Attach(cluster)
	e := newExec(prog, an, layouts, code.loops, cluster, cluster.Nodes[0], proto.Node(0), compiler.OptRTElim)
	e.m = code.newMach(e)
	var loop *ir.ParLoop
	ir.WalkStmts(prog.Body, func(s ir.Stmt) {
		if pl, ok := s.(*ir.ParLoop); ok && loop == nil && pl.Body[0].LHS.Array.Name == array && len(ir.Refs(pl.Body[0].RHS)) > 1 {
			loop = pl
		}
	})
	if loop == nil {
		tb.Fatalf("%s assigns %s from no two references", app, array)
	}
	elems = 1
	for _, ix := range loop.Indexes {
		elems *= (ix.Hi.Eval(e.env)-ix.Lo.Eval(e.env))/ix.StepOr1() + 1
	}
	pt := an.Partition(loop, an.LoopRuleOf(loop), e.env)
	return func() { e.runIterations(loop, pt) }, elems
}

// BenchmarkLoopBody is the host cost of the compiled loop body alone,
// per element: in strips, with every access checked, and on the
// message-passing backend's private memory. strip, checked and mp run
// pde's relax statement (ten loads, a store, eleven arithmetic ops);
// the shallow- cases run shallow's unew statement, the widest loop of
// the stencil_opt workload (eleven loads, a store, thirteen arithmetic
// ops).
func BenchmarkLoopBody(b *testing.B) {
	for _, stmt := range []string{"", "shallow-"} {
		for _, mode := range []string{"strip", "checked", "mp"} {
			b.Run(stmt+mode, func(b *testing.B) {
				var pass func()
				var elems int
				if stmt == "" {
					pass, elems = loopBodyFixture(b, mode == "mp")
				} else {
					pass, elems = statementFixture(b, "shallow", map[string]int{"N1": 129, "N2": 65, "ITERS": 1}, "UNEW", mode == "mp")
				}
				holdChecked = mode == "checked"
				defer func() { holdChecked = false }()
				pass()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/element")
			})
		}
	}
}

// TestLoopBodyAllocatesNothing: a loop instance runs on the executor's
// own machine, so in steady state it allocates nothing, in any mode.
func TestLoopBodyAllocatesNothing(t *testing.T) {
	for _, mode := range []string{"strip", "checked", "mp"} {
		pass, _ := loopBodyFixture(t, mode == "mp")
		holdChecked = mode == "checked"
		n := testing.AllocsPerRun(5, pass)
		holdChecked = false
		if n != 0 {
			t.Errorf("%s: a loop instance allocates %v times, want 0", mode, n)
		}
	}
}

// irregular reports whether x holds an indirect reference or an inner
// reduction.
func irregular(x ir.Expr) (found bool) {
	ir.WalkExpr(x, func(e ir.Expr) {
		switch e.(type) {
		case ir.Indirect, ir.InnerRed:
			found = true
		}
	})
	return found
}

// TestStripsFormWhereTheIRAllows: whether a loop forms strips is read
// off its IR — every reference affine, none under an inner reduction —
// so every loop of every shape does but the two built not to.
func TestStripsFormWhereTheIRAllows(t *testing.T) {
	never := 0
	for _, s := range loopShapes {
		prog := s.program(t)
		_, layouts := compiler.Place(prog, config.Default())
		code, err := compileProgram(prog, layouts, false)
		if err != nil {
			t.Fatal(err)
		}
		ir.WalkStmts(prog.Body, func(st ir.Stmt) {
			want := true
			switch l := st.(type) {
			case *ir.ParLoop:
				for _, as := range l.Body {
					want = want && !irregular(as.RHS)
				}
			case *ir.Reduce:
				want = !irregular(l.Expr)
			default:
				return
			}
			if !want {
				never++
			}
			if fl := code.loops[st]; fl.strips != want {
				t.Errorf("shape %s, %s: strips = %v, want %v", s.name, fl.name, fl.strips, want)
			}
		})
	}
	if never != 2 {
		t.Errorf("%d loops never form strips, want the inner-reduction and the indirect shape's", never)
	}
}
