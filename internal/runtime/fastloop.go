package runtime

import (
	"encoding/binary"
	"fmt"
	"math"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// This file is the loop executor: the only code that evaluates a
// statement's expressions or walks an iteration space. Every parallel
// loop, reduction and replicated-scalar statement is compiled once per
// run (compileProgram, before any node process exists) into one flat
// register program: ops over a []float64 frame — literals and scalars
// preloaded per instance (a loop body cannot assign scalars, so they are
// loop-invariant), one op per index value, load, arithmetic operator,
// intrinsic and store — beside a []int frame of loop variables,
// inner-reduction variables and outer symbols. The compiled table holds
// no node state: frames, address registers and nest state live in each
// executor's fmach, so one table serves every executor of the run, on
// every partition thread.
//
// Evaluation order is part of the simulated model, because every array
// access may fault: RHS before LHS, left operand before right, indirect
// subscripts left to right and before the load they address, inner
// reductions low to high. The ops are emitted in that order. Changing
// it changes the miss sequence and with it every statistic the golden
// tests pin.
//
// # Strips
//
// The machine being simulated checks an access tag per block, in
// hardware; so does the executor. Each affine reference keeps an address
// register, set when the scope it moves in is entered — the row, or an
// inner reduction — and bumped by its load or store op by a compile-time
// stride (coefficient of the scope's variable × step × the dimension's
// byte stride). The innermost index runs in strips: the longest run of
// consecutive iterations in which every reference stays in blocks held
// with the tag its access needs — not Invalid for a load, ReadWrite for
// a store — each block probed once, as a reference comes to it. The k
// iterations of a strip are charged as one Compute(k·elemCost) and run
// unchecked on the node image, and each store's dirty-word bits are set
// once for the strip. Where a probe fails, exactly one element runs the
// same ops in checked mode — Compute(elemCost), then tempest.LoadF64 /
// StoreF64 per access, faulting in evaluation order — and every probe
// is made again, since the fault yielded.
//
// This is bit-identical to checking every word, by construction:
//
//  1. Node.Compute only adds to the node's unsynced compute time. No
//     event runs, so no handler changes a tag, until the compute process
//     yields in a fault or Sync: a tag probed before a strip holds to its
//     end.
//  2. sim.Time is an int64, so k·elemCost is the same sum as k additions.
//  3. Hits are counted nowhere: an access whose check passes leaves no
//     trace but its data and, for a store, its dirty bit.
//  4. A store never changes a tag, so one reference's store cannot
//     invalidate another's probe.
//
// Hence a strip adds, removes and re-times no event, and the event
// censuses the benchmark pins stay equal.
//
// What ends a strip: a failed probe, or the row ending. The array's end
// needs no test of its own: on entry to a scope, every subscript of
// every reference in it is checked at the scope's two ends against its
// own dimension (affine, so the ends bound it) — before a row's first
// element, and before an inner reduction's first trip. Checked mode is
// the strip with k = 1 and the probes replaced by the real access
// checks; it is also how a loop with an indirect reference or an inner
// reduction runs throughout, since what those touch is not known in
// advance. Whether a loop forms strips is read off its IR, never off an
// option. The message-passing backend has no tags: a row is one unprobed
// strip.
//
// # Lanes
//
// Inside a strip nothing can fault, so the order of its memory accesses
// matters only where two of them touch the same word. That lets a strip
// run op by op instead of iteration by iteration: each op runs for up to
// `lanes` consecutive iterations — a frame slot holds a value per lane —
// before the next op starts, which pays for the dispatch once per
// sixteen elements and leaves the processor independent work to overlap.
// Every lane computes what its iteration would have: the same ops on the
// same operands, each rounded on its own. fmach.width says how many lanes
// a row may use; a loop whose stores and other references into the same
// array would meet within the lanes runs one lane wide, in the order of
// the program. Checked mode, inner reductions and scalar statements are
// one lane wide.
//
// There is no fused multiply-add op and there must never be one: Go may
// fuse x*y + z into one rounding on arm64, ppc64 and s390x, and the
// goldens were captured on amd64. Every arithmetic op stores its own
// result to the frame, which rounds it.
//
// What can only be known while running — a subscript out of range, a
// scalar read before any assignment, a symbol no enclosing loop binds —
// is raised as a *fault, which exec.run turns into the run's error.

// holdChecked keeps every loop in checked mode. Only tests set it: it
// is the oracle the strip path is compared with.
var holdChecked bool

// lanes is how many iterations of a strip an op runs before the next op
// starts. A slot of the float frame is that many consecutive values, one
// per lane, and a slot's number is the index of its lane 0. What is the
// same in every iteration (a literal, a scalar) fills its slot; what has
// one value (a scalar statement's, an accumulator) uses lane 0.
const lanes = 16

type opKind uint8

const (
	opIdx     opKind = iota // f[d] = float64(vals[a]), b more per lane
	opLoad                  // f[d] = *addr[a]; addr[a] += b
	opStore                 // *addr[a] = f[d]; addr[a] += b
	opLoadAt                // f[d] = *at[a], its address recomputed from vals
	opDim                   // vals[d] (+)= the byte offset of indirect subscript f[a] in dimension subs[b]
	opLoadInd               // f[d] = *vals[a]
	opWant                  // inspector: note the block of vals[a] unless it is held
	opAdd                   // f[d] = f[a] + f[b]; likewise the next three
	opSub
	opMul
	opDiv
	opSqrt // f[d] = SQRT(f[a]); likewise the next four
	opAbs
	opExp
	opSin
	opCos
	opMin // f[d] = MIN(f[a], f[b]); likewise the next two
	opMax
	opMod
	opCmp // f[d] = 1 if f[a] <sub> f[b], else 0
	opRed // run inner reduction reds[a]; its value is its accumulator's slot
	opAcc // fold f[a] into accumulator f[d] with operator sub; f[b] is 0 until it holds a value
)

// fop is one instruction. d, a and b are frame slots or table indexes
// as the kind says.
type fop struct {
	k       opKind
	sub     uint8 // opAcc: the tempest.ReduceOp; opCmp: the ir.CmpOp
	d, a, b int32
}

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

func (a affC) coef(slot int) int {
	for _, t := range a.terms {
		if t.slot == slot {
			return t.coef
		}
	}
	return 0
}

// fdim is one subscript of an affine reference.
type fdim struct {
	sub    affC
	ext    int // the dimension's extent: the subscript must stay in 1..ext
	stride int // bytes between consecutive indices of the dimension
	run    int // how far the subscript moves per step of the enclosing scope
}

// fref is a compiled affine array reference. The scope enclosing it —
// the row, or an inner reduction — range-checks it on entry (span). A
// register reference starts at the address that returns and advances by
// stride; the inspector's recompute their linearized address a.
type fref struct {
	name   string
	base   int
	dims   []fdim
	a      affC // base + Σ (sub-1)*stride, column-major, 1-based
	stride int  // bytes per step of the scope's variable
	store  bool
}

// span checks every subscript over trips consecutive steps of the
// scope's variable, whose first value is in vals, and returns the first
// element's address.
func (r *fref) span(vals []int, trips int) int {
	ad := r.base
	for d := range r.dims {
		dm := &r.dims[d]
		s := dm.sub.eval(vals)
		e := s + dm.run*(trips-1)
		if s < 1 || s > dm.ext || e < 1 || e > dm.ext {
			if s >= 1 && s <= dm.ext {
				s = e
			}
			panic(faultf("affine subscript out of range for %s: dimension %d reaches %d, not in 1..%d", r.name, d+1, s, dm.ext))
		}
		ad += (s - 1) * dm.stride
	}
	return ad
}

// fsub is one dimension of an indirect reference: how the subscript's
// run-time value is range-checked and scaled into the address.
type fsub struct {
	name   string
	ext    int
	stride int
	base   int   // the array's base address
	first  bool  // the first subscript starts the address at base
	skip   int32 // inspector: where to resume past the reference when the value is out of range; -1 faults
}

// fred is a compiled inner reduction: body runs once per value of the
// variable, low to high, and ends by folding its value into acc.
type fred struct {
	fscope // its variable, and the references under it
	lo, hi affC
	code   []fop
	acc    int32 // the accumulator's slot and its flag's (see opAcc)
	seen   int32
}

// fidx is one compiled nest index.
type fidx struct {
	name   string
	slot   int
	lo, hi affC
	step   int
}

// fvarBind maps an instance-setup source (env symbol or scalar) to its
// slot.
type fvarBind struct {
	slot int
	name string
}

type fconst struct {
	slot int32
	v    float64
}

// fastLoop is one compiled statement: a loop nest with its body, or
// (no indexes) a replicated-scalar expression.
type fastLoop struct {
	name   string // for diagnostics
	nvals  int
	nfv    int
	outerI []fvarBind // env-sourced integer slots, refreshed per instance
	outerF []fvarBind // scalar-sourced float slots, refreshed per instance
	consts []fconst   // literals, likewise
	idx    []fidx     // nest indexes, same order as the IR (0 fastest)

	code []fop
	res  int32 // where code leaves a reduction's partial, a scalar's value or an exit test's 0/1

	refs   []fref     // register references, indexed by opLoad / opStore
	stores []int32    // the stores among refs
	alias  [][2]int32 // each store with every other reference into its array (see width)
	at     []fref     // the inspector's references, indexed by opLoadAt
	row    fscope     // the references outside any inner reduction
	subs   []fsub
	reds   []fred

	strips bool // no indirect reference and no inner reduction
	mp     bool // message-passing backend: private memory, no tags

	// insp is the loop as the inspector runs it, when the body has an
	// indirect reference (see fcomp.inspect).
	insp *fastLoop
}

// fscope is what encloses the references being compiled and bounds
// their subscripts: the row (the innermost index, moving by its step)
// or an inner reduction's variable.
type fscope struct {
	slot, step int
	regs, at   []int32 // what it sets and range-checks on entry: indexes into refs and into at
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
	code    []fop // the list being emitted: the statement's, or an inner reduction's
	scope   fscope
	slots   map[string]int
	fslots  map[string]int
	err     error // first construct the executor has no code for
}

// fail records why the statement cannot be compiled (the first reason
// wins); a statement with an error is never run, so the slot returned
// is never read.
func (fc *fcomp) fail(format string, args ...any) int32 {
	if fc.err == nil {
		fc.err = fmt.Errorf(format, args...)
	}
	return 0
}

// bind registers a loop-bound variable (nest or inner-reduction),
// shadowing any outer binding; pop restores it.
func (fc *fcomp) bind(name string) (slot, prev int, had bool) {
	prev, had = fc.slots[name]
	slot = fc.ival()
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

// ival and temp allocate a fresh integer and float slot.
func (fc *fcomp) ival() int {
	fc.fl.nvals++
	return fc.fl.nvals - 1
}

func (fc *fcomp) temp() int32 {
	fc.fl.nfv += lanes
	return int32(fc.fl.nfv - lanes)
}

func (fc *fcomp) emit(o fop) { fc.code = append(fc.code, o) }

// slotOf resolves a variable: loop-bound slots win; anything else is an
// outer symbol resolved from the env at instance setup.
func (fc *fcomp) slotOf(name string) int {
	if s, ok := fc.slots[name]; ok {
		return s
	}
	s := fc.ival()
	fc.slots[name] = s
	fc.fl.outerI = append(fc.fl.outerI, fvarBind{slot: s, name: name})
	return s
}

// fslotOf resolves a scalar to its float slot.
func (fc *fcomp) fslotOf(name string) int32 {
	if s, ok := fc.fslots[name]; ok {
		return int32(s)
	}
	s := fc.temp()
	fc.fslots[name] = int(s)
	fc.fl.outerF = append(fc.fl.outerF, fvarBind{slot: int(s), name: name})
	return s
}

func (fc *fcomp) konst(v float64) int32 {
	s := fc.temp()
	fc.fl.consts = append(fc.fl.consts, fconst{s, v})
	return s
}

func (fc *fcomp) aff(a ir.AffExpr) affC {
	out := affC{c: a.Const}
	for _, t := range a.Terms {
		out.addTerm(fc.slotOf(t.Var), t.Coef)
	}
	return out
}

// ref compiles an affine array reference against the current scope.
func (fc *fcomp) ref(r ir.ArrayRef, store bool) fref {
	lay := fc.layouts[r.Array]
	f := fref{name: r.Array.Name, base: lay.Base, store: store, a: affC{c: lay.Base}}
	stride := lay.ElemSize
	for d, s := range r.Subs {
		dm := fdim{sub: fc.aff(s), ext: lay.Extents[d], stride: stride}
		dm.run = dm.sub.coef(fc.scope.slot) * fc.scope.step
		f.stride += dm.run * stride
		f.a.c += (dm.sub.c - 1) * stride
		for _, t := range dm.sub.terms {
			f.a.addTerm(t.slot, t.coef*stride)
		}
		f.dims = append(f.dims, dm)
		stride *= lay.Extents[d]
	}
	return f
}

// register adds a register reference, which the current scope sets on
// entry, and emits its op: a load into, or a store from, slot v.
func (fc *fcomp) register(k opKind, r ir.ArrayRef, v int32) {
	f := fc.ref(r, k == opStore)
	if int(int32(f.stride)) != f.stride {
		fc.fail("reference %v strides %d bytes per iteration", r, f.stride)
	}
	i := int32(len(fc.fl.refs))
	fc.fl.refs = append(fc.fl.refs, f)
	fc.scope.regs = append(fc.scope.regs, i)
	if f.store {
		fc.fl.stores = append(fc.fl.stores, i)
	}
	fc.emit(fop{k: k, d: v, a: i, b: int32(f.stride)})
}

// load compiles an affine read: a register reference, except in the
// inspector, where a subscript out of range jumps over the loads that
// follow it and a register would miss their bumps; there it recomputes
// its address.
func (fc *fcomp) load(r ir.ArrayRef) int32 {
	d := fc.temp()
	if !fc.inspect {
		fc.register(opLoad, r, d)
		return d
	}
	i := int32(len(fc.fl.at))
	fc.fl.at = append(fc.fl.at, fc.ref(r, false))
	fc.scope.at = append(fc.scope.at, i)
	fc.emit(fop{k: opLoadAt, d: d, a: i})
	return d
}

// indirect compiles an irregular reference: each subscript's ops, then
// the op that checks its value and scales it into the address (so a
// bad subscript stops the reference before later ones are evaluated),
// then the load — or, for the inspector, the note of the target block.
// Shared-memory only: Run refuses indirect programs on the
// message-passing backend.
func (fc *fcomp) indirect(t ir.Indirect) int32 {
	lay := fc.layouts[t.Array]
	if len(t.Subs) != len(lay.Extents) {
		return fc.fail("%s(...) has %d subscript(s), the array has rank %d", t.Array.Name, len(t.Subs), len(lay.Extents))
	}
	want := fc.inspect && fc.depth == 0
	ad := int32(fc.ival())
	first := len(fc.fl.subs)
	stride := lay.ElemSize
	fc.depth++
	for d, sub := range t.Subs {
		v := fc.expr(sub)
		fc.emit(fop{k: opDim, d: ad, a: v, b: int32(len(fc.fl.subs))})
		fc.fl.subs = append(fc.fl.subs, fsub{name: t.Array.Name, ext: lay.Extents[d], stride: stride, base: lay.Base, first: d == 0, skip: -1})
		stride *= lay.Extents[d]
	}
	fc.depth--
	if !want {
		d := fc.temp()
		fc.emit(fop{k: opLoadInd, d: d, a: ad})
		return d
	}
	// The inspector is advisory: a subscript it cannot locate is passed
	// over, and the executor phase reports it.
	fc.emit(fop{k: opWant, a: ad})
	for i := first; i < len(fc.fl.subs); i++ {
		fc.fl.subs[i].skip = int32(len(fc.code))
	}
	return fc.konst(0)
}

// acc ends the list being emitted by folding value v into a fresh
// accumulator, which it returns with its flag slot: seeded by the first
// value, so MAX and MIN need no identity. Whoever runs the list zeroes
// both first.
func (fc *fcomp) acc(op ir.RedOp, v int32) (acc, seen int32) {
	acc, seen = fc.temp(), fc.temp()
	fc.emit(fop{k: opAcc, sub: uint8(allReduceOp(op)), d: acc, a: v, b: seen})
	return
}

var binOps = map[ir.BinOp]opKind{ir.Add: opAdd, ir.Sub: opSub, ir.Mul: opMul, ir.Div: opDiv}

var intrinsics = map[string]struct {
	k     opKind
	arity int
}{
	"SQRT": {opSqrt, 1}, "ABS": {opAbs, 1}, "EXP": {opExp, 1}, "SIN": {opSin, 1}, "COS": {opCos, 1},
	"MIN": {opMin, 2}, "MAX": {opMax, 2}, "MOD": {opMod, 2},
}

// expr emits x's ops and returns the slot its value is left in.
func (fc *fcomp) expr(x ir.Expr) int32 {
	switch t := x.(type) {
	case ir.Num:
		return fc.konst(t.V)
	case ir.ScalarRef:
		return fc.fslotOf(t.Name)
	case ir.IdxVal:
		d, slot := fc.temp(), fc.slotOf(t.Name)
		o := fop{k: opIdx, d: d, a: int32(slot)}
		if len(fc.fl.idx) > 0 && slot == fc.fl.idx[0].slot {
			o.b = int32(fc.fl.idx[0].step) // the one variable that differs between lanes
		}
		fc.emit(o)
		return d
	case ir.ArrayRef:
		if fc.scalar {
			return fc.fail("array reference %v in scalar context", t)
		}
		if fc.inspect && fc.depth == 0 {
			return fc.konst(0)
		}
		return fc.load(t)
	case ir.Indirect:
		if fc.scalar {
			return fc.fail("array reference %s(...) in scalar context", t.Array.Name)
		}
		return fc.indirect(t)
	case ir.Bin:
		l, r := fc.expr(t.L), fc.expr(t.R)
		k, ok := binOps[t.Op]
		if !ok {
			return fc.fail("bad operator %d", t.Op)
		}
		d := fc.temp()
		fc.emit(fop{k: k, d: d, a: l, b: r})
		return d
	case ir.Call:
		var args [2]int32
		for i, a := range t.Args {
			if v := fc.expr(a); i < len(args) {
				args[i] = v
			}
		}
		in, ok := intrinsics[t.Fn]
		if !ok || in.arity != len(t.Args) {
			return fc.fail("unknown intrinsic %q with %d argument(s)", t.Fn, len(t.Args))
		}
		d := fc.temp()
		fc.emit(fop{k: in.k, d: d, a: args[0], b: args[1]})
		return d
	case ir.InnerRed:
		slot, prev, had := fc.bind(t.Var)
		r := fred{lo: fc.aff(t.Lo), hi: fc.aff(t.Hi)}
		code, scope := fc.code, fc.scope
		fc.code, fc.scope = nil, fscope{slot: slot, step: 1}
		r.acc, r.seen = fc.acc(t.Op, fc.expr(t.Body))
		r.code, r.fscope = fc.code, fc.scope
		fc.code, fc.scope = code, scope
		fc.pop(t.Var, prev, had)
		fc.emit(fop{k: opRed, a: int32(len(fc.fl.reds))})
		fc.fl.reds = append(fc.fl.reds, r)
		return r.acc
	default:
		return fc.fail("unknown expression %T", x)
	}
}

// nest binds a loop nest's indexes, then compiles their bounds (which
// may mention outer indexes of the same nest); the innermost index is
// the scope of the body's references.
func (fc *fcomp) nest(indexes []ir.Index) {
	fl := fc.fl
	if len(indexes) == 0 {
		fc.fail("no loop index")
		return
	}
	for _, ix := range indexes {
		slot, _, _ := fc.bind(ix.Var)
		fl.idx = append(fl.idx, fidx{name: ix.Var, slot: slot, step: ix.StepOr1()})
	}
	for i, ix := range indexes {
		fl.idx[i].lo = fc.aff(ix.Lo)
		fl.idx[i].hi = fc.aff(ix.Hi)
	}
	fc.scope = fscope{slot: fl.idx[0].slot, step: fl.idx[0].step}
}

// compileStmt compiles one statement (nil when it evaluates nothing),
// or — inspect — a parallel loop as its inspector runs it: the
// assignments with an indirect right-hand side, and of those only what
// locates the indirect targets.
func compileStmt(s ir.Stmt, layouts map[*ir.Array]sections.Layout, mp, inspect bool) (*fastLoop, error) {
	fl := &fastLoop{mp: mp}
	fc := &fcomp{fl: fl, layouts: layouts, inspect: inspect, slots: map[string]int{}, fslots: map[string]int{}}
	switch st := s.(type) {
	case *ir.ParLoop:
		fl.name = "loop " + st.Label
		fc.nest(st.Indexes)
		for _, as := range st.Body {
			switch {
			case !inspect:
				fc.register(opStore, as.LHS, fc.expr(as.RHS))
			case len(ir.Indirects(as.RHS)) > 0:
				fc.expr(as.RHS)
			}
		}
	case *ir.Reduce:
		fl.name = "loop " + st.Label
		fc.nest(st.Indexes)
		// This node's partial value, 0 when it has no element: bind zeroes
		// it as it loads the literals.
		var seen int32
		fl.res, seen = fc.acc(st.Op, fc.expr(st.Expr))
		fl.consts = append(fl.consts, fconst{fl.res, 0}, fconst{seen, 0})
	case *ir.ScalarAssign:
		fl.name = "scalar assignment to " + st.Name
		fc.scalar = true
		fl.res = fc.expr(st.RHS)
	case *ir.ExitIf:
		fl.name = "exit test"
		fc.scalar = true
		l, r := fc.expr(st.L), fc.expr(st.R)
		fl.res = fc.temp()
		fc.emit(fop{k: opCmp, sub: uint8(st.Op), d: fl.res, a: l, b: r})
	default:
		return nil, nil // nothing to evaluate
	}
	fl.code, fl.row = fc.code, fc.scope
	for _, st := range fl.stores {
		for r := range fl.refs {
			// A pair of stores is listed once.
			if r := int32(r); r != st && fl.refs[r].base == fl.refs[st].base && !(fl.refs[r].store && r < st) {
				fl.alias = append(fl.alias, [2]int32{st, r})
			}
		}
	}
	fl.strips = len(fl.subs) == 0 && len(fl.reds) == 0
	return fl, fc.err
}

// compiled is a program's compiled form: every statement that evaluates
// anything, and the frame sizes of the largest, so that one machine per
// executor fits them all.
type compiled struct {
	loops                   map[ir.Stmt]*fastLoop
	nvals, nfv, nrefs, nidx int
}

// compileProgram runs once per attempt, before the node processes are
// spawned: the table is read-only from then on and shared by all
// executors, and a construct the executor has no code for is an error
// here instead of a panic in the middle of the simulation.
func compileProgram(prog *ir.Program, layouts map[*ir.Array]sections.Layout, mp bool) (*compiled, error) {
	c := &compiled{loops: map[ir.Stmt]*fastLoop{}}
	var first error
	ir.WalkStmts(prog.Body, func(s ir.Stmt) {
		fl, err := compileStmt(s, layouts, mp, false)
		if fl == nil {
			return
		}
		if _, ok := s.(*ir.ParLoop); ok && len(fl.subs) > 0 && err == nil {
			fl.insp, err = compileStmt(s, layouts, mp, true)
			c.fit(fl.insp)
		}
		c.fit(fl)
		c.loops[s] = fl
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", fl.name, err)
		}
	})
	return c, first
}

func (c *compiled) fit(fl *fastLoop) {
	c.nvals = max(c.nvals, fl.nvals)
	c.nfv = max(c.nfv, fl.nfv)
	c.nrefs = max(c.nrefs, len(fl.refs))
	c.nidx = max(c.nidx, len(fl.idx))
}

// flevel is the walk's state at one nest level: the next value to hand
// out, the end of the current segment (the index's lo..hi, or one of
// the partition's ranges), and how many segments have been opened.
type flevel struct{ v, hi, ri int }

// fmach is an executor's machine: the frames, address registers and
// nest state that a statement instance runs in, sized for the program's
// largest statement and reused by every instance.
type fmach struct {
	e    *exec
	vals []int     // slot-indexed integer variables
	f    []float64 // slot-indexed literals, scalars and intermediate values
	addr []int     // address register of each of the statement's refs
	good []int     // probe's count for each: the iterations its probed blocks cover
	lv   []flevel
	dist int                 // the nest level the partition's ranges drive, -1 if none
	data []byte              // the node image
	want []sections.BlockRun // inspector phase: indirect target blocks not held, as met
}

func (c *compiled) newMach(e *exec) fmach {
	return fmach{e: e, vals: make([]int, c.nvals), f: make([]float64, c.nfv), addr: make([]int, c.nrefs),
		good: make([]int, c.nrefs), lv: make([]flevel, c.nidx), data: e.n.Mem.Bytes(0, e.n.Mem.Space().Size())}
}

// bind loads a statement instance's outer symbols, scalars and literals
// into the frames; a symbol or scalar that has no value yet is a fault.
func (m *fmach) bind(fl *fastLoop) {
	for _, ov := range fl.outerI {
		v, ok := m.e.env[ov.name]
		if !ok {
			panic(faultf("unbound symbol %q", ov.name))
		}
		m.vals[ov.slot] = v
	}
	for _, ov := range fl.outerF {
		v, ok := m.e.scalars[ov.name]
		if !ok {
			panic(faultf("undefined scalar %q", ov.name))
		}
		fill(lane(m.f, int32(ov.slot), lanes), v)
	}
	for _, c := range fl.consts {
		fill(lane(m.f, c.slot, lanes), c.v)
	}
}

// lane returns the first c lanes of the frame slot at off.
func lane(f []float64, off int32, c int) []float64 { return f[off : int(off)+c] }

func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

// run binds a loop instance and walks its nest on this node (index 0
// fastest): the distributed index takes the partition's ranges, aligned
// to the loop's step lattice, the others run lo..hi; the innermost level
// hands each of its segments to row whole. cost is charged per element.
//
//simlint:hotpath
func (m *fmach) run(fl *fastLoop, pt *compiler.Partition, cost sim.Time) {
	m.bind(fl)
	if pt.Single && pt.Exec != m.e.n.ID {
		return // another processor runs this entire loop
	}
	m.dist = -1
	for d := range fl.idx {
		if !pt.Single && fl.idx[d].name == pt.DistVar {
			m.dist = d
		}
	}
	top := len(fl.idx) - 1
	d := top
	m.lv[d] = flevel{v: 1}
	for d <= top {
		lv := &m.lv[d]
		if lv.v > lv.hi && !m.segment(fl, pt, d) {
			d++
			continue
		}
		if d == 0 {
			m.row(fl, lv.v, lv.hi, cost)
			lv.v = lv.hi + 1
			continue
		}
		m.vals[fl.idx[d].slot] = lv.v
		lv.v += fl.idx[d].step
		d--
		m.lv[d] = flevel{v: 1}
	}
}

// segment opens level d's next segment, or reports that it has none
// left.
//
//simlint:hotpath
func (m *fmach) segment(fl *fastLoop, pt *compiler.Partition, d int) bool {
	ix, lv := &fl.idx[d], &m.lv[d]
	if d != m.dist {
		if lv.ri > 0 {
			return false
		}
		lv.ri = 1
		lv.v, lv.hi = ix.lo.eval(m.vals), ix.hi.eval(m.vals)
		return lv.v <= lv.hi
	}
	lo := ix.lo.eval(m.vals)
	for ranges := pt.Ranges[m.e.n.ID]; lv.ri < len(ranges); {
		r := ranges[lv.ri]
		lv.ri++
		// Align the range start to the loop's step lattice.
		start := r[0]
		if off := (start - lo) % ix.step; off != 0 {
			start += ix.step - off
		}
		if start <= r[1] {
			lv.v, lv.hi = start, r[1]
			return true
		}
	}
	return false
}

// row runs the innermost index from v to hi in strips (see the header).
//
//simlint:hotpath
func (m *fmach) row(fl *fastLoop, v, hi int, cost sim.Time) {
	ix := &fl.idx[0]
	n := (hi-v)/ix.step + 1
	m.vals[ix.slot] = v
	m.enter(fl, &fl.row, n)
	w := m.width(fl, n)
	node := m.e.n
	for n > 0 {
		if k := m.probe(fl, n); k > 0 {
			m.vals[ix.slot] = v
			node.Compute(sim.Time(k) * cost)
			m.exec(fl, fl.code, k, w, ix.slot, ix.step, false)
			for _, r := range fl.stores {
				st := fl.refs[r].stride
				node.Mem.MarkDirtyRun(m.addr[r]-k*st, st, k)
			}
			v += k * ix.step
			if n -= k; n == 0 {
				return
			}
		}
		// The next element touches a block that is not held as its access
		// needs (or the loop forms no strips): run it checked. Its faults
		// yield, so nothing probed before it is known after it.
		m.vals[ix.slot] = v
		node.Compute(cost)
		m.exec(fl, fl.code, 1, 1, ix.slot, ix.step, true)
		v += ix.step
		n--
	}
}

// enter range-checks a scope's references over the trips steps of its
// variable that start at the value in vals, and sets its address
// registers to the first.
//
//simlint:hotpath
func (m *fmach) enter(fl *fastLoop, sc *fscope, trips int) {
	for _, r := range sc.regs {
		m.addr[r] = fl.refs[r].span(m.vals, trips)
	}
	for _, i := range sc.at {
		fl.at[i].span(m.vals, trips)
	}
}

// width returns how many lanes wide a row of n iterations, whose address
// registers are set, may run. Running an op for several iterations
// before the next op starts reorders the memory accesses of different ops
// in different iterations, so no such two may touch one word if either is
// a store. A store and another reference into its array that move at the
// same stride meet only at the distance between them, if that is a whole
// number of iterations, and the lanes must not span it; at different
// strides, the row must keep their words apart. One lane is the order of
// the program.
//
//simlint:hotpath
func (m *fmach) width(fl *fastLoop, n int) int {
	if !fl.strips {
		return 1
	}
	w := lanes
	for _, pr := range fl.alias {
		s, r := &fl.refs[pr[0]], &fl.refs[pr[1]]
		d := m.addr[pr[1]] - m.addr[pr[0]]
		switch {
		case s.stride != r.stride:
			// The words each touches over the row, as intervals.
			slo, shi := minmax(0, (n-1)*s.stride)
			rlo, rhi := minmax(d, d+(n-1)*r.stride)
			if rlo <= shi && slo <= rhi {
				return 1
			}
		case d == 0:
			// The same word in the same iteration, where the ops keep
			// their order — unless it is the same word in all of them.
			if s.stride == 0 {
				return 1
			}
		case s.stride != 0 && d%s.stride == 0:
			w = min(w, max(d/s.stride, -d/s.stride))
		}
	}
	return w
}

func minmax(a, b int) (int, int) { return min(a, b), max(a, b) }

// probe returns the length of the strip that starts the row's n
// remaining iterations: how many of them run before some reference
// enters a block that is not held with the tag its access needs, each
// block probed once. 0 when the loop forms no strips.
//
//simlint:hotpath
func (m *fmach) probe(fl *fastLoop, n int) int {
	if fl.mp {
		return n
	}
	if !fl.strips || holdChecked {
		return 0
	}
	mem := m.e.n.Mem
	sp := mem.Space()
	bs := sp.BlockSize()
	// good[r] is how many iterations the blocks probed for reference r
	// cover; the strip can run to the least of them, and whoever sets
	// that limit has its next block probed.
	good := m.good[:len(fl.refs)]
	clear(good)
	for k := 0; ; {
		lim := n
		for r := range good {
			if good[r] == k {
				ref := &fl.refs[r]
				ad := m.addr[r] + k*ref.stride
				b := sp.Block(ad)
				if t := mem.Tag(b); t == memory.Invalid || ref.store && t != memory.ReadWrite {
					return k
				}
				switch off, st := ad-b*bs, ref.stride; {
				case st == 8:
					good[r] += (bs - off) >> 3
				case st > 0:
					good[r] += (bs - off + st - 1) / st
				case st < 0:
					good[r] += off/-st + 1
				default:
					good[r] = n
				}
			}
			lim = min(lim, good[r])
		}
		if k = lim; k == n {
			return n
		}
	}
}

// exec runs code for k consecutive values of vals[slot], w of them at a
// time: each op runs for w iterations, one per lane, before the next op
// starts (see width). Unchecked, loads and stores go straight to the node
// image (the caller has probed the tags, or there are none, and marks
// the stores dirty); checked, one lane wide, they are the node's
// access-checked ones. Nothing else differs. The ops of loops that form
// no strips (opLoadAt, opDim, opLoadInd, opWant, opRed) only ever run one
// lane wide, as does opCmp.
//
//simlint:hotpath
func (m *fmach) exec(fl *fastLoop, code []fop, k, w, slot, step int, checked bool) {
	n, p := m.e.n, m.e.p
	f, vals, addr, data := m.f, m.vals, m.addr, m.data
	for {
		c := min(k, w)
		for pc := 0; pc < len(code); pc++ {
			o := &code[pc]
			switch o.k {
			case opIdx:
				v := vals[o.a]
				d := lane(f, o.d, c)
				for i := range d {
					d[i] = float64(v)
					v += int(o.b)
				}
			case opLoad:
				ad := addr[o.a]
				addr[o.a] = ad + c*int(o.b)
				if checked {
					f[o.d] = n.LoadF64(p, ad)
					break
				}
				d := lane(f, o.d, c)
				for i := range d {
					d[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[ad:]))
					ad += int(o.b)
				}
			case opStore:
				ad := addr[o.a]
				addr[o.a] = ad + c*int(o.b)
				if checked {
					n.StoreF64(p, ad, f[o.d])
					break
				}
				for _, x := range lane(f, o.d, c) {
					binary.LittleEndian.PutUint64(data[ad:], math.Float64bits(x))
					ad += int(o.b)
				}
			case opLoadAt:
				f[o.d] = n.LoadF64(p, fl.at[o.a].a.eval(vals))
			case opDim:
				s := &fl.subs[o.b]
				v := int(f[o.a])
				if v < 1 || v > s.ext {
					if s.skip < 0 {
						panic(faultf("indirect subscript %d out of range 1..%d for %s", v, s.ext, s.name))
					}
					pc = int(s.skip) - 1
					continue
				}
				if s.first {
					vals[o.d] = s.base
				}
				vals[o.d] += (v - 1) * s.stride
			case opLoadInd:
				f[o.d] = n.LoadF64(p, vals[o.a])
			case opWant:
				if b := vals[o.a] / n.MC.BlockSize; n.Mem.Tag(b) == memory.Invalid {
					m.want = sections.AppendBlock(m.want, b)
				}
			case opAdd:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = a[i] + b[i]
				}
			case opSub:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = a[i] - b[i]
				}
			case opMul:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = a[i] * b[i]
				}
			case opDiv:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = a[i] / b[i]
				}
			case opSqrt:
				d, a := lane(f, o.d, c), lane(f, o.a, c)
				for i := range d {
					d[i] = math.Sqrt(a[i])
				}
			case opAbs:
				d, a := lane(f, o.d, c), lane(f, o.a, c)
				for i := range d {
					d[i] = math.Abs(a[i])
				}
			case opExp:
				d, a := lane(f, o.d, c), lane(f, o.a, c)
				for i := range d {
					d[i] = math.Exp(a[i])
				}
			case opSin:
				d, a := lane(f, o.d, c), lane(f, o.a, c)
				for i := range d {
					d[i] = math.Sin(a[i])
				}
			case opCos:
				d, a := lane(f, o.d, c), lane(f, o.a, c)
				for i := range d {
					d[i] = math.Cos(a[i])
				}
			case opMin:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = math.Min(a[i], b[i])
				}
			case opMax:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = math.Max(a[i], b[i])
				}
			case opMod:
				d, a, b := lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c)
				for i := range d {
					d[i] = math.Mod(a[i], b[i])
				}
			case opCmp:
				f[o.d] = 0
				if cmp(ir.CmpOp(o.sub), f[o.a], f[o.b]) {
					f[o.d] = 1
				}
			case opRed:
				m.reduce(fl, &fl.reds[o.a], checked)
			case opAcc:
				// Lane order is element order.
				for _, x := range lane(f, o.a, c) {
					if f[o.b] == 0 {
						f[o.d], f[o.b] = x, 1
					} else {
						f[o.d] = tempest.ReduceOp(o.sub).Combine(f[o.d], x)
					}
				}
			}
		}
		if k -= c; k == 0 {
			return
		}
		vals[slot] += c * step
	}
}

// reduce runs an inner reduction: its variable low to high, its value
// seeded by the first trip (so MAX and MIN need no identity), 0 for no
// trip.
//
//simlint:hotpath
func (m *fmach) reduce(fl *fastLoop, r *fred, checked bool) {
	lo, hi := r.lo.eval(m.vals), r.hi.eval(m.vals)
	m.f[r.acc], m.f[r.seen] = 0, 0
	if lo > hi {
		return
	}
	m.vals[r.slot] = lo
	m.enter(fl, &r.fscope, hi-lo+1)
	m.exec(fl, r.code, hi-lo+1, 1, r.slot, 1, checked)
}
