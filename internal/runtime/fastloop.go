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
// every partition.
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
// same operands. fmach.width says how many lanes a row may use; a loop
// whose stores and other references into the same array would meet
// within the lanes runs one lane wide, in the order of the program.
// Checked mode, inner reductions and scalar statements are one lane wide.
//
// An op's loop over its lanes is a kernel: a leaf function that takes
// the op's lanes of the frame and, for a memory op, the node image, an
// address and a stride, so that the loop's state stays in registers;
// exec only dispatches and picks the image or the access-checked path.
// Where one op computes an operand of the next, the emitter fuses the two
// into a superinstruction (fcomp.fuse): a load into arithmetic or into a
// store, arithmetic into a store, arithmetic into arithmetic. A fused op
// does what the pair did, lane by lane, without the round trip of the
// intermediate through the frame and a second dispatch. Memory accesses
// keep their places in the list, so the fault order is unchanged. Only a
// copy interleaves memory accesses of different lanes, a load and a
// store; width already keeps a store and another reference into its
// array from touching one word in two different lanes. Checked mode runs
// the same fused op one lane wide, LoadF64 before the arithmetic,
// StoreF64 after it. Because checked mode shares the fused ops, the
// oracle for them is the test seam noFuse, which compiles every
// statement op by op.
//
// Every floating-point operation rounds on its own, in the order of the
// program: nothing reassociates, and each expression in a kernel does one
// operation, so there is nothing the Go compiler could fuse. Go may fuse
// x*y + z into one rounding (a fused multiply-add) on arm64, ppc64 and
// s390x, never on amd64, where the goldens were captured: there is no
// fused multiply-add op and there must never be one, and `make fma-guard`
// fails on any such instruction in the simulator's arm64 assembly.
//
// What can only be known while running — a subscript out of range, a
// scalar read before any assignment, a symbol no enclosing loop binds —
// is raised as a *fault, which exec.run turns into the run's error.

// holdChecked keeps every loop in checked mode, and noFuse compiles
// every statement without superinstructions. Only tests set them: they
// are the oracles the strips and the fused ops are compared with.
var holdChecked, noFuse bool

// lanes is how many iterations of a strip an op runs before the next op
// starts. A slot of the float frame is that many consecutive values, one
// per lane, and a slot's number is the index of its lane 0. What is the
// same in every iteration (a literal, a scalar) fills its slot; what has
// one value (a scalar statement's, an accumulator) uses lane 0.
const lanes = 16

type opKind uint8

const (
	opIdx     opKind = iota // f[d] = float64(vals[a]), b more per lane
	opLoad                  // f[d] = *addr[r]; addr[r] += st
	opStore                 // *addr[r] = f[a]; addr[r] += st
	opLoadAt                // f[d] = *at[a], its address recomputed from vals
	opDim                   // vals[d] (+)= the byte offset of indirect subscript f[a] in dimension subs[b]
	opLoadInd               // f[d] = *vals[a]
	opWant                  // inspector: note the block of vals[a] unless it is held
	opArith                 // f[d] = f[a] <sub> f[b]
	opCall                  // f[d] = <sub>(f[a]) or <sub>(f[a], f[b])
	opCmp                   // f[d] = 1 if f[a] <sub> f[b], else 0
	opRed                   // run inner reduction reds[a]; its value is its accumulator's slot
	opAcc                   // fold f[a] into accumulator f[d] with operator sub; f[b] is 0 until it holds a value

	// Superinstructions (see fuse): two of the ops above, the first
	// computing an operand of the second.
	opLoadArith  // f[d] = f[a] <sub> *addr[r] (flip: *addr[r] <sub> f[a]); addr[r] += st
	opArithStore // *addr[r] = f[a] <sub> f[b]; addr[r] += st
	opArith3     // f[d] = (f[a] <sub> f[b]) <sub2> f[c] (flip: f[c] <sub2> (f[a] <sub> f[b]))
	opCopy       // *addr[b] = *addr[r]; addr[r] += st, addr[b] += c
)

// fop is one instruction. d, a, b and c are frame slots or table indexes
// as the kind says; r and st are a memory op's reference, whose address
// register it reads and bumps, and the reference's stride.
type fop struct {
	k          opKind
	sub, sub2  uint8 // the arith or callee; opAcc: the tempest.ReduceOp; opCmp: the ir.CmpOp
	flip       bool  // a fused op's loaded or inner operand is the left one
	d, a, b, c int32
	r, st      int32
}

// arith is a floating-point operator: opArith's and the fused ops'.
type arith uint8

const (
	aAdd arith = iota
	aSub
	aMul
	aDiv
)

// callee is an intrinsic: opCall's.
type callee uint8

const (
	cSqrt callee = iota
	cAbs
	cExp
	cSin
	cCos
	cMin
	cMax
	cMod
)

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

// fuse returns the list being emitted with each pair of adjacent ops in
// which the first computes an operand of the second made one
// superinstruction: a load into arithmetic or into a store (a copy),
// arithmetic into a store, arithmetic into arithmetic — unless the second
// arithmetic feeds a store, which is left to fuse with it. A slot an op
// leaves is read once, by its parent in the expression, so a fused pair
// leaves no slot the first op wrote. The memory accesses keep their
// places in the list, and every operation still rounds on its own (see
// the header). The inspector's lists are left as they are: its opDim ops
// jump into them by index.
func (fc *fcomp) fuse() []fop {
	code := fc.code
	if noFuse || fc.inspect {
		return code
	}
	out := make([]fop, 0, len(code))
	for i := 0; i < len(code); i++ {
		o := code[i]
		var x, y fop // the next two ops; past the end, neither arithmetic nor a store
		if i+1 < len(code) {
			x = code[i+1]
		}
		if i+2 < len(code) {
			y = code[i+2]
		}
		feeds := x.k == opArith && (x.a == o.d || x.b == o.d)
		switch {
		case o.k == opLoad && feeds:
			a, flip := x.a, false
			if x.a == o.d {
				a, flip = x.b, true
			}
			o = fop{k: opLoadArith, sub: x.sub, flip: flip, d: x.d, a: a, r: o.r, st: o.st}
			i++
		case o.k == opLoad && x.k == opStore && x.a == o.d:
			o = fop{k: opCopy, r: o.r, st: o.st, b: x.r, c: x.st}
			i++
		case o.k == opArith && x.k == opStore && x.a == o.d:
			o = fop{k: opArithStore, sub: o.sub, a: o.a, b: o.b, r: x.r, st: x.st}
			i++
		case o.k == opArith && feeds && !(y.k == opStore && y.a == x.d):
			c, flip := x.b, false
			if x.b == o.d {
				c, flip = x.a, true
			}
			o = fop{k: opArith3, sub: o.sub, sub2: x.sub, flip: flip, d: x.d, a: o.a, b: o.b, c: c}
			i++
		}
		out = append(out, o)
	}
	return out
}

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
	o := fop{k: k, r: i, st: int32(f.stride)}
	if f.store {
		o.a = v
	} else {
		o.d = v
	}
	fc.emit(o)
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

var binOps = map[ir.BinOp]arith{ir.Add: aAdd, ir.Sub: aSub, ir.Mul: aMul, ir.Div: aDiv}

var intrinsics = map[string]struct {
	fn    callee
	arity int
}{
	"SQRT": {cSqrt, 1}, "ABS": {cAbs, 1}, "EXP": {cExp, 1}, "SIN": {cSin, 1}, "COS": {cCos, 1},
	"MIN": {cMin, 2}, "MAX": {cMax, 2}, "MOD": {cMod, 2},
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
		op, ok := binOps[t.Op]
		if !ok {
			return fc.fail("bad operator %d", t.Op)
		}
		d := fc.temp()
		fc.emit(fop{k: opArith, sub: uint8(op), d: d, a: l, b: r})
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
		fc.emit(fop{k: opCall, sub: uint8(in.fn), d: d, a: args[0], b: args[1]})
		return d
	case ir.InnerRed:
		slot, prev, had := fc.bind(t.Var)
		r := fred{lo: fc.aff(t.Lo), hi: fc.aff(t.Hi)}
		code, scope := fc.code, fc.scope
		fc.code, fc.scope = nil, fscope{slot: slot, step: 1}
		r.acc, r.seen = fc.acc(t.Op, fc.expr(t.Body))
		r.code, r.fscope = fc.fuse(), fc.scope
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
	fl.code, fl.row = fc.fuse(), fc.scope
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

// compileProgram runs once per Run, before any attempt builds a machine:
// the table is read-only from then on and shared by every executor of
// every attempt, and a construct the executor has no code for is an error
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
	lv   []flevel
	dist int                 // the nest level the partition's ranges drive, -1 if none
	data []byte              // the node image
	win  [8]byte             // checked mode: the one word a memory op's kernel reads or writes
	want []sections.BlockRun // inspector phase: indirect target blocks not held, as met
}

func (c *compiled) newMach(e *exec) fmach {
	return fmach{e: e, vals: make([]int, c.nvals), f: make([]float64, c.nfv), addr: make([]int, c.nrefs),
		lv: make([]flevel, c.nidx), data: e.n.Mem.Bytes(0, e.n.Mem.Space().Size())}
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
// enters a block that is not held with the tag its access needs. Each
// reference walks the tag table block by block, no further than the
// shortest strip found so far. 0 when the loop forms no strips.
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
	sp, tags := mem.Space(), mem.Tags()
	bs := sp.BlockSize()
	for r := range fl.refs {
		ref := &fl.refs[r]
		ad, st, store := m.addr[r], ref.stride, ref.store
		for k := 0; k < n; {
			b := sp.Block(ad)
			if t := tags[b]; t == memory.Invalid || store && t != memory.ReadWrite {
				n = k
				break
			}
			// The iterations this block covers.
			var g int
			switch off := ad - b*bs; {
			case st == 8:
				g = (bs - off) >> 3
			case st > 0:
				g = (bs - off + st - 1) / st
			case st < 0:
				g = off/-st + 1
			default:
				g = n
			}
			k += g
			ad += g * st
		}
	}
	return n
}

// exec runs code for k consecutive values of vals[slot], w of them at a
// time: each op runs for w iterations, one per lane, before the next op
// starts (see width). An op's lanes are a kernel's loop (below).
// Unchecked, loads and stores go straight to the node image (the caller
// has probed the tags, or there are none, and marks the stores dirty);
// checked, one lane wide, they are the node's access-checked LoadF64 and
// StoreF64, and the kernel of a fused arithmetic op works on the word in
// win, which LoadF64 fills before the arithmetic or StoreF64 writes after
// it. Nothing else differs. The ops of loops that form no strips
// (opLoadAt, opDim, opLoadInd, opWant, opRed) only ever run one lane
// wide, as does opCmp.
//
//simlint:hotpath
func (m *fmach) exec(fl *fastLoop, code []fop, k, w, slot, step int, checked bool) {
	n, p := m.e.n, m.e.p
	f, vals, addr := m.f, m.vals, m.addr
	for {
		c := min(k, w)
		for pc := 0; pc < len(code); pc++ {
			o := &code[pc]
			switch o.k {
			case opIdx:
				idxLanes(lane(f, o.d, c), vals[o.a], int(o.b))
			case opLoad:
				ad := bump(addr, o, c)
				if checked {
					f[o.d] = n.LoadF64(p, ad)
					break
				}
				loadLanes(lane(f, o.d, c), m.data, ad, int(o.st))
			case opLoadArith:
				data, ad := m.data, bump(addr, o, c)
				if checked {
					putWord(m.win[:], 0, n.LoadF64(p, ad))
					data, ad = m.win[:], 0
				}
				arith(o.sub).loadLanes(o.flip, lane(f, o.d, c), lane(f, o.a, c), data, ad, int(o.st))
			case opStore:
				ad := bump(addr, o, c)
				if checked {
					n.StoreF64(p, ad, f[o.a])
					break
				}
				storeLanes(lane(f, o.a, c), m.data, ad, int(o.st))
			case opArithStore:
				ad := bump(addr, o, c)
				if checked {
					arith(o.sub).storeLanes(lane(f, o.a, c), lane(f, o.b, c), m.win[:], 0, 0)
					n.StoreF64(p, ad, word(m.win[:], 0))
					break
				}
				arith(o.sub).storeLanes(lane(f, o.a, c), lane(f, o.b, c), m.data, ad, int(o.st))
			case opCopy:
				src, dst := bump(addr, o, c), addr[o.b]
				addr[o.b] = dst + c*int(o.c)
				if checked {
					n.StoreF64(p, dst, n.LoadF64(p, src))
					break
				}
				copyLanes(c, m.data, src, int(o.st), dst, int(o.c))
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
			case opArith:
				arith(o.sub).lanes(lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c))
			case opArith3:
				// Two passes over d's lanes, each an operation rounded on its
				// own; measured no slower than one pass.
				d := lane(f, o.d, c)
				arith(o.sub).lanes(d, lane(f, o.a, c), lane(f, o.b, c))
				if o.flip {
					arith(o.sub2).lanes(d, lane(f, o.c, c), d)
				} else {
					arith(o.sub2).lanes(d, d, lane(f, o.c, c))
				}
			case opCall:
				callee(o.sub).lanes(lane(f, o.d, c), lane(f, o.a, c), lane(f, o.b, c))
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

// bump returns a memory op's address and moves its register past the c
// lanes.
func bump(addr []int, o *fop, c int) int {
	ad := addr[o.r]
	addr[o.r] = ad + c*int(o.st)
	return ad
}

// The kernels: one op's loop over its lanes, a leaf function, so that
// what the loop keeps — lane index, slices, address and stride — stays in
// registers. d's lanes are the result; a memory operand is the word at ad
// of data and every st bytes after it. Every expression in them does one
// floating-point operation, which rounds it: there is nothing the Go
// compiler may fuse into a multiply-add (`make fma-guard` checks).

func word(data []byte, ad int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[ad:]))
}

func putWord(data []byte, ad int, x float64) {
	binary.LittleEndian.PutUint64(data[ad:], math.Float64bits(x))
}

func idxLanes(d []float64, v, step int) {
	for i := range d {
		d[i] = float64(v)
		v += step
	}
}

func loadLanes(d []float64, data []byte, ad, st int) {
	for i := range d {
		d[i] = word(data, ad)
		ad += st
	}
}

func storeLanes(s []float64, data []byte, ad, st int) {
	for _, x := range s {
		putWord(data, ad, x)
		ad += st
	}
}

// copyLanes is opCopy's kernel: c words, from every fst bytes at from to
// every tst bytes at to.
func copyLanes(c int, data []byte, from, fst, to, tst int) {
	for ; c > 0; c-- {
		putWord(data, to, word(data, from))
		from += fst
		to += tst
	}
}

func (op arith) lanes(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	switch op {
	case aAdd:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case aSub:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case aMul:
		for i := range d {
			d[i] = a[i] * b[i]
		}
	case aDiv:
		for i := range d {
			d[i] = a[i] / b[i]
		}
	}
}

// loadLanes is opLoadArith's kernel: d = a op *ad, or *ad op a (flip).
func (op arith) loadLanes(flip bool, d, a []float64, data []byte, ad, st int) {
	a = a[:len(d)]
	switch {
	case op == aAdd && !flip:
		for i := range d {
			d[i] = a[i] + word(data, ad)
			ad += st
		}
	case op == aSub && !flip:
		for i := range d {
			d[i] = a[i] - word(data, ad)
			ad += st
		}
	case op == aMul && !flip:
		for i := range d {
			d[i] = a[i] * word(data, ad)
			ad += st
		}
	case op == aDiv && !flip:
		for i := range d {
			d[i] = a[i] / word(data, ad)
			ad += st
		}
	case op == aAdd:
		for i := range d {
			d[i] = word(data, ad) + a[i]
			ad += st
		}
	case op == aSub:
		for i := range d {
			d[i] = word(data, ad) - a[i]
			ad += st
		}
	case op == aMul:
		for i := range d {
			d[i] = word(data, ad) * a[i]
			ad += st
		}
	case op == aDiv:
		for i := range d {
			d[i] = word(data, ad) / a[i]
			ad += st
		}
	}
}

// storeLanes is opArithStore's kernel: *ad = a op b.
func (op arith) storeLanes(a, b []float64, data []byte, ad, st int) {
	b = b[:len(a)]
	switch op {
	case aAdd:
		for i := range a {
			putWord(data, ad, a[i]+b[i])
			ad += st
		}
	case aSub:
		for i := range a {
			putWord(data, ad, a[i]-b[i])
			ad += st
		}
	case aMul:
		for i := range a {
			putWord(data, ad, a[i]*b[i])
			ad += st
		}
	case aDiv:
		for i := range a {
			putWord(data, ad, a[i]/b[i])
			ad += st
		}
	}
}

// lanes is opCall's kernel; a one-argument callee ignores b.
func (fn callee) lanes(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	switch fn {
	case cSqrt:
		for i := range d {
			d[i] = math.Sqrt(a[i])
		}
	case cAbs:
		for i := range d {
			d[i] = math.Abs(a[i])
		}
	case cExp:
		for i := range d {
			d[i] = math.Exp(a[i])
		}
	case cSin:
		for i := range d {
			d[i] = math.Sin(a[i])
		}
	case cCos:
		for i := range d {
			d[i] = math.Cos(a[i])
		}
	case cMin:
		for i := range d {
			d[i] = math.Min(a[i], b[i])
		}
	case cMax:
		for i := range d {
			d[i] = math.Max(a[i], b[i])
		}
	case cMod:
		for i := range d {
			d[i] = math.Mod(a[i], b[i])
		}
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
