// Package ir defines the compiler's intermediate representation for
// data-parallel programs: distributed arrays, affine subscripts,
// parallel loop nests (FORALL), sequential time-step loops, global
// reductions, and replicated scalar computation. The mini-HPF front
// end lowers to this IR; the communication analysis, the shared-memory
// executor, and the message-passing executor all consume it.
package ir

import (
	"fmt"
	"sort"
	"strings"

	"hpfdsm/internal/distribute"
)

// --- Affine expressions ----------------------------------------------

// Term is one ci*var term of an affine expression.
type Term struct {
	Var  string
	Coef int
}

// AffExpr is an affine integer expression c0 + Σ ci*vi over loop
// variables and program symbols. Terms are kept sorted by variable
// name with zero coefficients removed (canonical form).
type AffExpr struct {
	Const int
	Terms []Term
}

// Aff returns the constant affine expression c.
func Aff(c int) AffExpr { return AffExpr{Const: c} }

// V returns the affine expression consisting of one variable.
func V(name string) AffExpr { return AffExpr{Terms: []Term{{name, 1}}} }

func (a AffExpr) norm() AffExpr {
	m := map[string]int{}
	for _, t := range a.Terms {
		m[t.Var] += t.Coef
	}
	out := AffExpr{Const: a.Const}
	var vars []string
	for v, c := range m {
		if c != 0 {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	for _, v := range vars {
		out.Terms = append(out.Terms, Term{v, m[v]})
	}
	return out
}

// Add returns a+b.
func (a AffExpr) Add(b AffExpr) AffExpr {
	return AffExpr{Const: a.Const + b.Const, Terms: append(append([]Term{}, a.Terms...), b.Terms...)}.norm()
}

// Sub returns a-b.
func (a AffExpr) Sub(b AffExpr) AffExpr { return a.Add(b.Scale(-1)) }

// AddC returns a+c.
func (a AffExpr) AddC(c int) AffExpr { return a.Add(Aff(c)) }

// Scale returns k*a.
func (a AffExpr) Scale(k int) AffExpr {
	out := AffExpr{Const: a.Const * k}
	for _, t := range a.Terms {
		out.Terms = append(out.Terms, Term{t.Var, t.Coef * k})
	}
	return out.norm()
}

// Eval evaluates under env; it panics on unbound variables.
func (a AffExpr) Eval(env map[string]int) int {
	v := a.Const
	for _, t := range a.Terms {
		val, ok := env[t.Var]
		if !ok {
			panic(fmt.Sprintf("ir: unbound variable %q in affine expression %v", t.Var, a))
		}
		v += t.Coef * val
	}
	return v
}

// TryEval evaluates under env, reporting false if a variable is
// unbound (used by cost estimation, where loop-interior variables are
// not yet bound).
func (a AffExpr) TryEval(env map[string]int) (int, bool) {
	v := a.Const
	for _, t := range a.Terms {
		val, ok := env[t.Var]
		if !ok {
			return 0, false
		}
		v += t.Coef * val
	}
	return v, true
}

// IsConst reports whether the expression has no variable terms.
func (a AffExpr) IsConst() bool { return len(a.Terms) == 0 }

// Equal reports whether a and b are the same affine function: a-b is the
// zero constant.
func (a AffExpr) Equal(b AffExpr) bool {
	d := a.Sub(b)
	return d.IsConst() && d.Const == 0
}

// Coef returns the coefficient of variable v (0 if absent).
func (a AffExpr) Coef(v string) int {
	for _, t := range a.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Vars returns the variables appearing in the expression.
func (a AffExpr) Vars() []string {
	out := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		out[i] = t.Var
	}
	return out
}

func (a AffExpr) String() string {
	var b strings.Builder
	wrote := false
	for _, t := range a.Terms {
		if wrote {
			b.WriteByte('+')
		}
		if t.Coef == 1 {
			b.WriteString(t.Var)
		} else {
			fmt.Fprintf(&b, "%d*%s", t.Coef, t.Var)
		}
		wrote = true
	}
	if a.Const != 0 || !wrote {
		if wrote && a.Const > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", a.Const)
	}
	return b.String()
}

// --- Arrays ------------------------------------------------------------

// MaxArrayBytes is the most one array may hold. Every node keeps an
// image of the whole shared segment, so a larger array could never be
// simulated; refusing it where it is declared gives a positioned error
// instead of an element count or segment size that overflows int on its
// way to a node image.
const MaxArrayBytes = 1 << 40

// Array is a distributed array declaration. Indices are 1-based,
// storage is column-major, elements are float64. Only the last
// dimension may be distributed (the paper's assumption).
type Array struct {
	Name    string
	Extents []int
	Dist    distribute.Spec
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Extents) }

// LastExtent returns the distributed dimension's extent.
func (a *Array) LastExtent() int { return a.Extents[len(a.Extents)-1] }

// Elems returns the total element count.
func (a *Array) Elems() int {
	n := 1
	for _, e := range a.Extents {
		n *= e
	}
	return n
}

func (a *Array) String() string {
	dims := make([]string, len(a.Extents))
	for i, e := range a.Extents {
		dims[i] = fmt.Sprint(e)
	}
	return fmt.Sprintf("%s(%s) dist %v", a.Name, strings.Join(dims, ","), a.Dist.Kind)
}

// --- Expressions -------------------------------------------------------

// Expr is a floating-point expression evaluated per loop element.
type Expr interface{ isExpr() }

// Num is a literal.
type Num struct{ V float64 }

// ScalarRef reads a replicated scalar variable.
type ScalarRef struct{ Name string }

// IdxVal converts a loop index (or symbol) to a floating-point value,
// e.g. for initialization expressions like a(i,j) = i + 2*j.
type IdxVal struct{ Name string }

// ArrayRef reads (or, as an assignment target, writes) an array
// element with affine subscripts.
type ArrayRef struct {
	Array *Array
	Subs  []AffExpr
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
)

func (o BinOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Call is an intrinsic function application (SQRT, ABS, MIN, MAX, EXP).
type Call struct {
	Fn   string
	Args []Expr
}

// InnerRed is a sequential reduction evaluated inside one loop element
// (e.g. the dot product inside a matrix-vector row).
type InnerRed struct {
	Op   RedOp
	Var  string
	Lo   AffExpr
	Hi   AffExpr
	Body Expr
}

// Indirect is an irregular array read whose subscripts are arbitrary
// runtime expressions (e.g. v(ix(i)) — an indirect subscript through
// an index array, or v(i*j) — a non-affine subscript). The compiler
// cannot derive access sets for it: the reference always goes through
// the default coherence protocol, which is exactly the versatility
// argument of the paper (and why such programs are "not amenable to
// purely message-passing approaches").
type Indirect struct {
	Array *Array
	Subs  []Expr
}

func (Num) isExpr()       {}
func (ScalarRef) isExpr() {}
func (IdxVal) isExpr()    {}
func (ArrayRef) isExpr()  {}
func (Bin) isExpr()       {}
func (Call) isExpr()      {}
func (InnerRed) isExpr()  {}
func (Indirect) isExpr()  {}

// Flops is the per-element cost model: the flop count of one
// evaluation of x. Literals and scalars are free, an index conversion
// or a load costs one, an operator one plus its operands, an intrinsic
// eight plus its arguments, and an indirect read two (address and load)
// plus its subscripts. An inner reduction costs its trip count times
// one plus its body: the bounds evaluated under env where they resolve,
// else 16 trips. Beneath an indirect subscript only constant bounds
// count.
func Flops(x Expr, env map[string]int) int {
	switch t := x.(type) {
	case Num, ScalarRef:
		return 0
	case IdxVal, ArrayRef:
		return 1
	case Bin:
		return 1 + Flops(t.L, env) + Flops(t.R, env)
	case Call:
		n := 8
		for _, a := range t.Args {
			n += Flops(a, env)
		}
		return n
	case Indirect:
		n := 2
		for _, s := range t.Subs {
			n += Flops(s, nil)
		}
		return n
	case InnerRed:
		trip := 16
		lo, okL := t.Lo.TryEval(env)
		hi, okH := t.Hi.TryEval(env)
		if okL && okH {
			trip = max(hi-lo+1, 0)
		}
		return trip * (1 + Flops(t.Body, env))
	}
	panic(fmt.Sprintf("ir: no cost for expression %T", x))
}

func (r ArrayRef) String() string {
	subs := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		subs[i] = s.String()
	}
	return fmt.Sprintf("%s(%s)", r.Array.Name, strings.Join(subs, ","))
}

// --- Statements ---------------------------------------------------------

// Stmt is a program statement.
type Stmt interface{ isStmt() }

// Index is one loop index of a parallel nest: var runs Lo..Hi by Step.
type Index struct {
	Var  string
	Lo   AffExpr
	Hi   AffExpr
	Step int // 0 means 1
}

// StepOr1 returns the effective step.
func (ix Index) StepOr1() int {
	if ix.Step == 0 {
		return 1
	}
	return ix.Step
}

// Assign is one element assignment inside a parallel loop.
type Assign struct {
	LHS ArrayRef
	RHS Expr
}

// ParLoop is a parallel (FORALL) loop nest: every iteration is
// independent. Work is distributed owner-computes on the first
// assignment's left-hand side unless OnHome overrides it. Index 0
// varies fastest.
type ParLoop struct {
	Indexes []Index
	Body    []*Assign
	OnHome  *ArrayRef // optional ON HOME directive
	Label   string    // source label for diagnostics and schedules
}

// SeqLoop is a sequential (time-step) loop.
type SeqLoop struct {
	Var  string
	Lo   AffExpr
	Hi   AffExpr
	Body []Stmt
}

// RedOp is a reduction operator.
type RedOp int

// Reduction operators.
const (
	RedSum RedOp = iota
	RedMax
	RedMin
)

func (o RedOp) String() string { return [...]string{"SUM", "MAX", "MIN"}[o] }

// Reduce computes a global reduction of Expr over a parallel iteration
// space into the scalar Target, replicated on all processors.
type Reduce struct {
	Op      RedOp
	Target  string
	Indexes []Index
	Expr    Expr
	Label   string
}

// ScalarAssign evaluates a replicated scalar assignment (the expression
// may reference scalars and literals only, so every node computes the
// same value).
type ScalarAssign struct {
	Name string
	RHS  Expr
}

// CmpOp is a comparison operator for ExitIf.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
)

func (o CmpOp) String() string { return [...]string{"<", "<=", ">", ">="}[o] }

// ExitIf breaks out of the innermost sequential loop when the scalar
// condition holds (e.g. a convergence test). Both sides must be
// replicated-scalar expressions.
type ExitIf struct {
	L  Expr
	Op CmpOp
	R  Expr
}

// Block groups statements (an inlined subroutine body).
type Block struct {
	Body []Stmt
}

// StartTimer begins the measured region: all nodes synchronize, the
// performance counters reset, and elapsed time is reported from this
// point — the paper's methodology of timing the computation proper
// (e.g. pde's "RELAX routine only") after initialization.
type StartTimer struct{}

func (*ParLoop) isStmt()      {}
func (*StartTimer) isStmt()   {}
func (*Block) isStmt()        {}
func (*SeqLoop) isStmt()      {}
func (*Reduce) isStmt()       {}
func (*ScalarAssign) isStmt() {}
func (*ExitIf) isStmt()       {}

// --- Program -------------------------------------------------------------

// Program is a complete data-parallel program.
type Program struct {
	Name    string
	Params  map[string]int // compile-time constants (problem sizes)
	Arrays  []*Array
	Scalars []string
	Body    []Stmt
}

// ArrayByName returns the named array or nil.
func (p *Program) ArrayByName(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Param returns a named parameter value.
func (p *Program) Param(name string) int {
	v, ok := p.Params[name]
	if !ok {
		panic(fmt.Sprintf("ir: program %s has no param %q", p.Name, name))
	}
	return v
}
