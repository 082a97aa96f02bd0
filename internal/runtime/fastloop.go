package runtime

import (
	"fmt"
	"math"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
)

// This file is the loop executor: the only code that evaluates a
// statement's expressions or walks an iteration space. Every parallel loop,
// reduction and replicated-scalar statement is compiled once per run
// (compileProgram, before any node process exists) into slot-indexed
// form: loop variables, inner-reduction variables, and outer symbols
// live in a flat []int frame; affine subscripts fold into a single
// linearized byte-address expression over those slots; scalar reads
// resolve to float slots refreshed once per statement instance (a loop
// body cannot assign scalars, so they are loop-invariant). The compiled
// form holds no node state — closures reach the node through the fmach
// they are handed — so one table serves every executor of the run, on
// every partition thread.
//
// Evaluation order is part of the simulated model, because every array
// access may fault: RHS before LHS address, left operand before right,
// indirect subscripts left to right and before the load they address,
// inner reductions low to high. Changing it changes the miss sequence
// and with it every statistic the golden tests pin.
//
// What can only be known while running — a subscript out of range, a
// scalar read before any assignment, a symbol no enclosing loop binds —
// is raised as a *fault, which exec.run turns into the run's error.

// fmach is the per-instance machine state of a compiled loop.
type fmach struct {
	e    *exec
	p    *sim.Proc
	vals []int        // slot-indexed integer variables
	fv   []float64    // slot-indexed loop-invariant scalars
	want map[int]bool // inspector phase: indirect target blocks not held
}

// fexpr is a compiled floating-point expression.
type fexpr func(m *fmach) float64

// affC is a compiled affine expression: c + Σ coef*vals[slot].
type affC struct {
	c     int
	terms []affTerm
}

type affTerm struct{ slot, coef int }

func (a affC) eval(vals []int) int {
	v := a.c
	for _, t := range a.terms {
		v += t.coef * vals[t.slot]
	}
	return v
}

// addTerm merges a term into the expression, combining slots.
func (a *affC) addTerm(slot, coef int) {
	for i := range a.terms {
		if a.terms[i].slot == slot {
			a.terms[i].coef += coef
			return
		}
	}
	a.terms = append(a.terms, affTerm{slot, coef})
}

// faddr is a compiled array-element address: the linearized affine
// byte address plus the array's segment bounds as a safety net (a
// per-dimension range check collapses to one interval test; a
// subscript that leaves the array still faults the run, with the array
// named).
type faddr struct {
	a         affC
	base, end int
	name      string
}

func (f faddr) addr(vals []int) int {
	ad := f.a.eval(vals)
	if ad < f.base || ad >= f.end {
		panic(faultf("affine subscript out of range for %s: element offset %d not in 0..%d",
			f.name, (ad-f.base)/8, (f.end-f.base)/8-1))
	}
	return ad
}

// findirect is a compiled irregular reference: one compiled expression
// per subscript, and the array's layout to range-check and linearize
// their values (column-major, 1-based indices).
type findirect struct {
	subs []fexpr
	lay  sections.Layout
	name string
}

// locate evaluates the subscripts left to right (each may itself load)
// and returns the element's byte address. At the first subscript
// outside its dimension it stops — later subscripts are not evaluated —
// and returns that dimension and the offending value; dim is -1 when
// every subscript is in range.
func (f *findirect) locate(m *fmach) (ad, dim, v int) {
	ad = f.lay.Base
	stride := f.lay.ElemSize
	for d, sub := range f.subs {
		v = int(sub(m))
		if v < 1 || v > f.lay.Extents[d] {
			return 0, d, v
		}
		ad += (v - 1) * stride
		stride *= f.lay.Extents[d]
	}
	return ad, -1, 0
}

// fidx is one compiled nest index.
type fidx struct {
	name   string
	slot   int
	lo, hi affC
	step   int
}

// fassign is one compiled body assignment.
type fassign struct {
	lhs faddr
	rhs fexpr
}

// fvarBind maps an instance-setup source (env symbol or scalar) to its
// slot.
type fvarBind struct {
	slot int
	name string
}

// fastLoop is one compiled statement: a loop nest with its body, or
// (no indexes) a replicated-scalar expression.
type fastLoop struct {
	name    string // for diagnostics
	nvals   int
	nfv     int
	outerI  []fvarBind // env-sourced integer slots, refreshed per instance
	outerF  []fvarBind // scalar-sourced float slots, refreshed per instance
	idx     []fidx     // nest indexes, same order as the IR (0 fastest)
	assigns []fassign  // parallel-loop body
	insp    []fexpr    // the body's indirect right-hand sides, as the inspector runs them (see fcomp.inspect)
	expr    fexpr      // reduction body, scalar RHS, or exit test (0/1)
	mp      bool       // message-passing backend: unchecked private memory
}

// fcomp is the compile-time context of one statement: variable-name →
// slot bindings, allocated in the fastLoop being built.
type fcomp struct {
	fl      *fastLoop
	layouts map[*ir.Array]sections.Layout
	scalar  bool // replicated-scalar statement: arrays are out of reach
	// inspect compiles an expression as the inspector runs it: only the
	// loads that feed an indirect subscript (depth > 0) touch memory;
	// an indirect reference records its target block instead of loading
	// it, and every other array read is skipped.
	inspect bool
	depth   int
	slots   map[string]int
	fslots  map[string]int
	err     error // first construct the executor has no code for
}

// fail records why the statement cannot be compiled (the first reason
// wins) and returns a nil expression; a statement with an error is
// never run, so the nil is never called.
func (fc *fcomp) fail(format string, args ...any) fexpr {
	if fc.err == nil {
		fc.err = fmt.Errorf(format, args...)
	}
	return nil
}

// bind registers a loop-bound variable (nest or inner-reduction),
// shadowing any outer binding; pop restores it.
func (fc *fcomp) bind(name string) (slot, prev int, had bool) {
	prev, had = fc.slots[name]
	slot = fc.fl.nvals
	fc.fl.nvals++
	fc.slots[name] = slot
	return
}

func (fc *fcomp) pop(name string, prev int, had bool) {
	if had {
		fc.slots[name] = prev
	} else {
		delete(fc.slots, name)
	}
}

// slotOf resolves a variable: loop-bound slots win; anything else is an
// outer symbol resolved from the env at instance setup.
func (fc *fcomp) slotOf(name string) int {
	if s, ok := fc.slots[name]; ok {
		return s
	}
	s := fc.fl.nvals
	fc.fl.nvals++
	fc.slots[name] = s
	fc.fl.outerI = append(fc.fl.outerI, fvarBind{slot: s, name: name})
	return s
}

// fslotOf resolves a scalar to its float slot.
func (fc *fcomp) fslotOf(name string) int {
	if s, ok := fc.fslots[name]; ok {
		return s
	}
	s := fc.fl.nfv
	fc.fl.nfv++
	fc.fslots[name] = s
	fc.fl.outerF = append(fc.fl.outerF, fvarBind{slot: s, name: name})
	return s
}

func (fc *fcomp) aff(a ir.AffExpr) affC {
	out := affC{c: a.Const}
	for _, t := range a.Terms {
		out.addTerm(fc.slotOf(t.Var), t.Coef)
	}
	return out
}

// addr linearizes an affine array reference into one byte-address
// affine expression (column-major, 1-based indices).
func (fc *fcomp) addr(r ir.ArrayRef) faddr {
	lay := fc.layouts[r.Array]
	acc := affC{c: lay.Base}
	stride := lay.ElemSize
	for d, s := range r.Subs {
		acc.c += (s.Const - 1) * stride
		for _, t := range s.Terms {
			acc.addTerm(fc.slotOf(t.Var), t.Coef*stride)
		}
		stride *= lay.Extents[d]
	}
	return faddr{a: acc, base: lay.Base, end: lay.Base + lay.SizeBytes(), name: r.Array.Name}
}

// indirect compiles an irregular reference.
func (fc *fcomp) indirect(t ir.Indirect) *findirect {
	f := &findirect{lay: fc.layouts[t.Array], name: t.Array.Name}
	fc.depth++
	for _, sub := range t.Subs {
		f.subs = append(f.subs, fc.expr(sub))
	}
	fc.depth--
	return f
}

func (fc *fcomp) expr(x ir.Expr) fexpr {
	switch t := x.(type) {
	case ir.Num:
		v := t.V
		return func(*fmach) float64 { return v }
	case ir.ScalarRef:
		s := fc.fslotOf(t.Name)
		return func(m *fmach) float64 { return m.fv[s] }
	case ir.IdxVal:
		s := fc.slotOf(t.Name)
		return func(m *fmach) float64 { return float64(m.vals[s]) }
	case ir.ArrayRef:
		if fc.scalar {
			return fc.fail("array reference %v in scalar context", t)
		}
		if fc.inspect && fc.depth == 0 {
			return func(*fmach) float64 { return 0 }
		}
		ad := fc.addr(t)
		if fc.fl.mp {
			return func(m *fmach) float64 { return m.e.n.Mem.ReadF64(ad.addr(m.vals)) } // private memory, no tags
		}
		return func(m *fmach) float64 { return m.e.n.LoadF64(m.p, ad.addr(m.vals)) }
	case ir.Indirect:
		// Shared-memory only: Run refuses indirect programs on the
		// message-passing backend.
		if fc.scalar {
			return fc.fail("array reference %s(...) in scalar context", t.Array.Name)
		}
		ia := fc.indirect(t)
		if fc.inspect && fc.depth == 0 {
			return func(m *fmach) float64 {
				// A subscript out of range is skipped here; the
				// executor phase reports it.
				if ad, dim, _ := ia.locate(m); dim < 0 {
					if b := ad / m.e.n.MC.BlockSize; m.e.n.Mem.Tag(b) == memory.Invalid {
						m.want[b] = true
					}
				}
				return 0
			}
		}
		return func(m *fmach) float64 {
			ad, dim, v := ia.locate(m)
			if dim >= 0 {
				panic(faultf("indirect subscript %d out of range 1..%d for %s", v, ia.lay.Extents[dim], ia.name))
			}
			return m.e.n.LoadF64(m.p, ad)
		}
	case ir.Bin:
		l, r := fc.expr(t.L), fc.expr(t.R)
		switch t.Op {
		case ir.Add:
			return func(m *fmach) float64 { return l(m) + r(m) }
		case ir.Sub:
			return func(m *fmach) float64 { return l(m) - r(m) }
		case ir.Mul:
			return func(m *fmach) float64 { return l(m) * r(m) }
		case ir.Div:
			return func(m *fmach) float64 { return l(m) / r(m) }
		}
		return fc.fail("bad operator %d", t.Op)
	case ir.Call:
		return fc.call(t)
	case ir.InnerRed:
		slot, prev, had := fc.bind(t.Var)
		lo, hi := fc.aff(t.Lo), fc.aff(t.Hi)
		body := fc.expr(t.Body)
		fc.pop(t.Var, prev, had)
		op := t.Op
		return func(m *fmach) float64 {
			l, h := lo.eval(m.vals), hi.eval(m.vals)
			acc := 0.0
			seen := false
			for v := l; v <= h; v++ {
				m.vals[slot] = v
				val := body(m)
				if !seen {
					acc, seen = val, true
				} else {
					acc = redCombine(op, acc, val)
				}
			}
			return acc
		}
	default:
		return fc.fail("unknown expression %T", x)
	}
}

func (fc *fcomp) call(t ir.Call) fexpr {
	args := make([]fexpr, len(t.Args))
	for i, a := range t.Args {
		args[i] = fc.expr(a)
	}
	if len(args) == 1 {
		a0 := args[0]
		switch t.Fn {
		case "SQRT":
			return func(m *fmach) float64 { return math.Sqrt(a0(m)) }
		case "ABS":
			return func(m *fmach) float64 { return math.Abs(a0(m)) }
		case "EXP":
			return func(m *fmach) float64 { return math.Exp(a0(m)) }
		case "SIN":
			return func(m *fmach) float64 { return math.Sin(a0(m)) }
		case "COS":
			return func(m *fmach) float64 { return math.Cos(a0(m)) }
		}
	}
	if len(args) == 2 {
		a0, a1 := args[0], args[1]
		switch t.Fn {
		case "MIN":
			return func(m *fmach) float64 { return math.Min(a0(m), a1(m)) }
		case "MAX":
			return func(m *fmach) float64 { return math.Max(a0(m), a1(m)) }
		case "MOD":
			return func(m *fmach) float64 { return math.Mod(a0(m), a1(m)) }
		}
	}
	return fc.fail("unknown intrinsic %q with %d argument(s)", t.Fn, len(args))
}

// nest binds a loop nest's indexes, then compiles their bounds (which
// may mention outer indexes of the same nest).
func (fc *fcomp) nest(indexes []ir.Index) {
	fl := fc.fl
	for _, ix := range indexes {
		slot, _, _ := fc.bind(ix.Var)
		fl.idx = append(fl.idx, fidx{name: ix.Var, slot: slot, step: ix.StepOr1()})
	}
	for i, ix := range indexes {
		fl.idx[i].lo = fc.aff(ix.Lo)
		fl.idx[i].hi = fc.aff(ix.Hi)
	}
}

// compileProgram compiles every statement of prog that evaluates
// anything. It runs once per attempt, before the node processes are
// spawned: the table is read-only from then on and shared by all
// executors, and a construct the executor has no code for is an error
// here instead of a panic in the middle of the simulation.
func compileProgram(prog *ir.Program, layouts map[*ir.Array]sections.Layout, mp bool) (map[ir.Stmt]*fastLoop, error) {
	tab := map[ir.Stmt]*fastLoop{}
	var first error
	ir.WalkStmts(prog.Body, func(s ir.Stmt) {
		fl := &fastLoop{mp: mp}
		fc := &fcomp{fl: fl, layouts: layouts, slots: map[string]int{}, fslots: map[string]int{}}
		switch st := s.(type) {
		case *ir.ParLoop:
			fl.name = "loop " + st.Label
			fc.nest(st.Indexes)
			for _, as := range st.Body {
				fl.assigns = append(fl.assigns, fassign{rhs: fc.expr(as.RHS), lhs: fc.addr(as.LHS)})
				if len(ir.Indirects(as.RHS)) > 0 {
					fc.inspect = true
					fl.insp = append(fl.insp, fc.expr(as.RHS))
					fc.inspect = false
				}
			}
		case *ir.Reduce:
			fl.name = "loop " + st.Label
			fc.nest(st.Indexes)
			fl.expr = fc.expr(st.Expr)
		case *ir.ScalarAssign:
			fl.name = "scalar assignment to " + st.Name
			fc.scalar = true
			fl.expr = fc.expr(st.RHS)
		case *ir.ExitIf:
			fl.name = "exit test"
			fc.scalar = true
			l, r, op := fc.expr(st.L), fc.expr(st.R), st.Op
			fl.expr = func(m *fmach) float64 {
				if cmp(op, l(m), r(m)) {
					return 1
				}
				return 0
			}
		default:
			return // nothing to evaluate
		}
		tab[s] = fl
		if fc.err != nil && first == nil {
			first = fmt.Errorf("%s: %w", fl.name, fc.err)
		}
	})
	return tab, first
}

// newMach builds the per-instance frame and resolves the outer symbols
// and scalars; one that has no value yet is a fault.
func (fl *fastLoop) newMach(e *exec, p *sim.Proc) *fmach {
	m := &fmach{e: e, p: p, vals: make([]int, fl.nvals), fv: make([]float64, fl.nfv)}
	for _, ov := range fl.outerI {
		v, ok := e.env[ov.name]
		if !ok {
			panic(faultf("unbound symbol %q", ov.name))
		}
		m.vals[ov.slot] = v
	}
	for _, ov := range fl.outerF {
		v, ok := e.scalars[ov.name]
		if !ok {
			panic(faultf("undefined scalar %q", ov.name))
		}
		m.fv[ov.slot] = v
	}
	return m
}

// iterate walks the compiled nest (index 0 fastest) calling elem per
// element. The distributed variable's ranges come from the partition;
// other indexes run in full.
//
//simlint:hotpath
func (fl *fastLoop) iterate(m *fmach, pt *compiler.Partition, elem func()) {
	e := m.e
	var nest func(d int)
	//simlint:ignore hotalloc -- one recursive-nest closure per loop instance (not per element); Go cannot express the self-referential nest without a closure
	nest = func(d int) {
		if d < 0 {
			elem()
			return
		}
		ix := &fl.idx[d]
		step := ix.step
		if ix.name == pt.DistVar && !pt.Single {
			lo := ix.lo.eval(m.vals)
			for _, r := range pt.Ranges[e.n.ID] {
				// Align the range start to the loop's step lattice.
				start := r[0]
				if off := (start - lo) % step; off != 0 {
					start += step - off
				}
				for v := start; v <= r[1]; v += step {
					m.vals[ix.slot] = v
					nest(d - 1)
				}
			}
			return
		}
		lo, hi := ix.lo.eval(m.vals), ix.hi.eval(m.vals)
		for v := lo; v <= hi; v += step {
			m.vals[ix.slot] = v
			nest(d - 1)
		}
	}
	if pt.Single && pt.Exec != e.n.ID {
		return // another processor runs this entire loop
	}
	nest(len(fl.idx) - 1)
}

// runBody executes a compiled parallel-loop instance.
//
//simlint:hotpath
func (fl *fastLoop) runBody(m *fmach, pt *compiler.Partition, elemCost sim.Time) {
	e := m.e
	//simlint:ignore hotalloc -- one element-body closure per loop instance (not per element); the per-element path inside it is closure- and alloc-free
	fl.iterate(m, pt, func() {
		e.n.Compute(elemCost)
		for i := range fl.assigns {
			as := &fl.assigns[i]
			v := as.rhs(m)
			ad := as.lhs.addr(m.vals)
			if fl.mp {
				e.n.Mem.WriteF64(ad, v)
			} else {
				e.n.StoreF64(m.p, ad, v)
			}
		}
	})
}

// runReduce executes a compiled reduction instance, returning this
// node's partial value (seeded by the first element, so MAX and MIN
// need no identity; 0 when the node has no element).
//
//simlint:hotpath
func (fl *fastLoop) runReduce(m *fmach, pt *compiler.Partition, elemCost sim.Time, op ir.RedOp) float64 {
	e := m.e
	partial := 0.0
	seen := false
	//simlint:ignore hotalloc -- one reduction-body closure per loop instance (not per element)
	fl.iterate(m, pt, func() {
		e.n.Compute(elemCost)
		v := fl.expr(m)
		if !seen {
			partial, seen = v, true
		} else {
			partial = redCombine(op, partial, v)
		}
	})
	return partial
}
