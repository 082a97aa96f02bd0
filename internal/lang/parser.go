package lang

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
)

// Parse compiles mini-HPF source into the IR.
func Parse(src string) (*ir.Program, error) {
	return ParseWithOverrides(src, nil)
}

// ParseWithOverrides compiles source, overriding PARAM values (used to
// scale problem sizes without editing the program text). Names match
// case-insensitively, as identifiers do; an override that names no
// PARAM of the program is an error.
func ParseWithOverrides(src string, overrides map[string]int) (*ir.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	upper := make(map[string]int, len(overrides))
	for k, v := range overrides {
		u := strings.ToUpper(k)
		if _, dup := upper[u]; dup {
			return nil, fmt.Errorf("PARAM %s overridden twice", u)
		}
		upper[u] = v
	}
	p := &parser{
		toks:      toks,
		overrides: upper,
		prog:      &ir.Program{Params: map[string]int{}},
		arrays:    map[string]*ir.Array{},
		scalars:   map[string]bool{},
		bound:     map[string]bool{},
		subs:      map[string][]ir.Stmt{},
	}
	if err := p.program(); err != nil {
		return nil, err
	}
	var unknown []string
	for k := range upper {
		if _, ok := p.prog.Params[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if unknown != nil {
		slices.Sort(unknown)
		declared := slices.Sorted(maps.Keys(p.prog.Params))
		return nil, fmt.Errorf("no PARAM %s to override: program %s declares %s",
			strings.Join(unknown, ", "), p.prog.Name, strings.Join(declared, ", "))
	}
	return p.prog, nil
}

type parser struct {
	toks      []token
	pos       int
	overrides map[string]int
	prog      *ir.Program
	arrays    map[string]*ir.Array
	scalars   map[string]bool
	bound     map[string]bool // loop variables currently in scope
	subs      map[string][]ir.Stmt
	inSub     bool
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %v, found %v %q", k, p.cur().kind, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptIdent(name string) bool {
	if p.cur().kind == tIdent && p.cur().text == name {
		p.pos++
		return true
	}
	return false
}

func (p *parser) eol() error {
	if p.cur().kind == tNL {
		p.pos++
		return nil
	}
	if p.cur().kind == tEOF {
		return nil
	}
	return p.errf("unexpected %v %q at end of statement", p.cur().kind, p.cur().text)
}

// --- Grammar ------------------------------------------------------------

func (p *parser) program() error {
	p.skipNLs()
	if !p.acceptIdent("PROGRAM") {
		return p.errf("program must start with PROGRAM")
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	p.prog.Name = name.text
	if err := p.eol(); err != nil {
		return err
	}
	body, err := p.stmts("")
	if err != nil {
		return err
	}
	p.prog.Body = body
	return nil
}

func (p *parser) skipNLs() {
	for p.cur().kind == tNL {
		p.pos++
	}
}

// stmts parses statements until the matching END (END FORALL / END DO
// for a given opener; bare END for the program).
func (p *parser) stmts(opener string) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for {
		p.skipNLs()
		if p.cur().kind == tEOF {
			if opener != "" {
				return nil, p.errf("missing END %s", opener)
			}
			return nil, p.errf("missing END")
		}
		if p.acceptIdent("END") {
			if opener == "" {
				if p.cur().kind == tIdent {
					return nil, p.errf("unexpected END %s", p.cur().text)
				}
				return out, p.eol()
			}
			if !p.acceptIdent(opener) {
				return nil, p.errf("expected END %s", opener)
			}
			return out, p.eol()
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
}

func (p *parser) statement() (ir.Stmt, error) {
	t := p.cur()
	if t.kind != tIdent {
		return nil, p.errf("expected a statement, found %v %q", t.kind, t.text)
	}
	switch t.text {
	case "PARAM":
		p.pos++
		return nil, p.param()
	case "REAL":
		p.pos++
		return nil, p.realDecl()
	case "SCALAR":
		p.pos++
		return nil, p.scalarDecl()
	case "DISTRIBUTE":
		p.pos++
		return nil, p.distributeDecl()
	case "FORALL":
		p.pos++
		return p.forall()
	case "DO":
		p.pos++
		return p.doLoop()
	case "REDUCE":
		p.pos++
		return p.reduce()
	case "LET":
		p.pos++
		return p.let()
	case "EXITIF":
		p.pos++
		return p.exitIf()
	case "STARTTIMER":
		p.pos++
		if err := p.eol(); err != nil {
			return nil, err
		}
		return &ir.StartTimer{}, nil
	case "SUB":
		p.pos++
		return nil, p.subDecl()
	case "CALL":
		p.pos++
		return p.call()
	default:
		return nil, p.errf("unknown statement %q", t.text)
	}
}

func (p *parser) param() error {
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tAssign); err != nil {
		return err
	}
	neg := p.accept(tMinus)
	v, err := p.expect(tInt)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(v.text)
	if err != nil {
		return p.errf("PARAM %s = %s: the value is out of range", name.text, v.text)
	}
	if neg {
		n = -n
	}
	if ov, ok := p.overrides[name.text]; ok {
		n = ov
	}
	p.prog.Params[name.text] = n
	return p.eol()
}

func (p *parser) realDecl() error {
	for {
		name, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		if _, dup := p.arrays[name.text]; dup {
			return p.errf("array %s redeclared", name.text)
		}
		if _, err := p.expect(tLParen); err != nil {
			return err
		}
		var extents []int
		elems := 1
		for {
			e, err := p.affExpr()
			if err != nil {
				return err
			}
			ev, err := p.constEval(e)
			if err != nil {
				return err
			}
			if ev < 1 {
				return p.errf("array %s has non-positive extent %d", name.text, ev)
			}
			if elems > ir.MaxArrayBytes/8/ev {
				return p.errf("array %s holds more than %d bytes, the most one array may", name.text, ir.MaxArrayBytes)
			}
			elems *= ev
			extents = append(extents, ev)
			if p.accept(tRParen) {
				break
			}
			if _, err := p.expect(tComma); err != nil {
				return err
			}
		}
		arr := &ir.Array{Name: name.text, Extents: extents, Dist: distribute.Spec{Kind: distribute.Block}}
		p.arrays[name.text] = arr
		p.prog.Arrays = append(p.prog.Arrays, arr)
		if !p.accept(tComma) {
			break
		}
	}
	return p.eol()
}

func (p *parser) scalarDecl() error {
	for {
		name, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		p.scalars[name.text] = true
		p.prog.Scalars = append(p.prog.Scalars, name.text)
		if !p.accept(tComma) {
			break
		}
	}
	return p.eol()
}

func (p *parser) distributeDecl() error {
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	arr, ok := p.arrays[name.text]
	if !ok {
		return p.errf("DISTRIBUTE of undeclared array %s", name.text)
	}
	if _, err := p.expect(tLParen); err != nil {
		return err
	}
	var specs []distribute.Spec
	for {
		var sp distribute.Spec
		switch {
		case p.accept(tStar):
			sp.Kind = distribute.Collapsed
		case p.acceptIdent("BLOCK"):
			sp.Kind = distribute.Block
		case p.acceptIdent("CYCLIC"):
			sp.Kind = distribute.Cyclic
			if p.accept(tLParen) {
				k, err := p.expect(tInt)
				if err != nil {
					return err
				}
				sp.Kind = distribute.BlockCyclic
				if sp.K, err = strconv.Atoi(k.text); err != nil {
					return p.errf("CYCLIC(%s): the chunk size is out of range", k.text)
				}
				if sp.K < 1 {
					return p.errf("CYCLIC(%s): the chunk size must be at least 1", k.text)
				}
				if _, err := p.expect(tRParen); err != nil {
					return err
				}
			}
		default:
			return p.errf("expected *, BLOCK or CYCLIC in DISTRIBUTE")
		}
		specs = append(specs, sp)
		if p.accept(tRParen) {
			break
		}
		if _, err := p.expect(tComma); err != nil {
			return err
		}
	}
	if len(specs) != arr.Rank() {
		return p.errf("DISTRIBUTE rank %d does not match array %s rank %d", len(specs), arr.Name, arr.Rank())
	}
	for _, sp := range specs[:len(specs)-1] {
		if sp.Kind != distribute.Collapsed {
			return p.errf("only the last dimension of %s may be distributed (the paper's assumption)", arr.Name)
		}
	}
	arr.Dist = specs[len(specs)-1]
	return p.eol()
}

func (p *parser) indexSpec() (ir.Index, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return ir.Index{}, err
	}
	if _, err := p.expect(tAssign); err != nil {
		return ir.Index{}, err
	}
	lo, err := p.affExpr()
	if err != nil {
		return ir.Index{}, err
	}
	if _, err := p.expect(tColon); err != nil {
		return ir.Index{}, err
	}
	hi, err := p.affExpr()
	if err != nil {
		return ir.Index{}, err
	}
	ix := ir.Index{Var: name.text, Lo: lo, Hi: hi}
	if p.accept(tColon) {
		st, err := p.expect(tInt)
		if err != nil {
			return ir.Index{}, err
		}
		if ix.Step, err = strconv.Atoi(st.text); err != nil {
			return ir.Index{}, p.errf("step %s is out of range", st.text)
		}
		if ix.Step < 1 {
			return ir.Index{}, p.errf("step must be positive")
		}
	}
	return ix, nil
}

func (p *parser) forall() (ir.Stmt, error) {
	line := p.cur().line
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var idxs []ir.Index
	for {
		ix, err := p.indexSpec()
		if err != nil {
			return nil, err
		}
		if p.bound[ix.Var] {
			return nil, p.errf("index %s shadows an enclosing loop variable", ix.Var)
		}
		idxs = append(idxs, ix)
		if p.accept(tRParen) {
			break
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
	}
	for _, ix := range idxs {
		p.bound[ix.Var] = true
	}
	defer func() {
		for _, ix := range idxs {
			delete(p.bound, ix.Var)
		}
	}()

	pl := &ir.ParLoop{Indexes: idxs, Label: fmt.Sprintf("forall@%d", line)}

	// Optional ON HOME directive: FORALL (...) ON a(i, j) steers the
	// computation distribution by the named reference instead of the
	// first assignment's left-hand side (the paper: "The compiler can
	// use the programmer-supplied INDEPENDENT directive to divide a
	// loop in any fashion ... or according to an ON HOME directive").
	if p.acceptIdent("ON") {
		name, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		arr, ok := p.arrays[name.text]
		if !ok {
			return nil, p.errf("ON HOME references undeclared array %s", name.text)
		}
		ref, err := p.arrayRef(arr)
		if err != nil {
			return nil, err
		}
		pl.OnHome = &ref
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	for {
		p.skipNLs()
		if p.acceptIdent("END") {
			if !p.acceptIdent("FORALL") {
				return nil, p.errf("expected END FORALL")
			}
			if err := p.eol(); err != nil {
				return nil, err
			}
			break
		}
		as, err := p.assignment()
		if err != nil {
			return nil, err
		}
		pl.Body = append(pl.Body, as)
	}
	if len(pl.Body) == 0 {
		return nil, p.errf("FORALL at line %d has no assignments", line)
	}
	return pl, nil
}

func (p *parser) assignment() (*ir.Assign, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	arr, ok := p.arrays[name.text]
	if !ok {
		return nil, p.errf("assignment to undeclared array %s", name.text)
	}
	lhs, err := p.arrayRef(arr)
	if err != nil {
		return nil, fmt.Errorf("%w (note: indirect subscripts are not allowed on the left-hand side)", err)
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	return &ir.Assign{LHS: lhs, RHS: rhs}, nil
}

func (p *parser) doLoop() (ir.Stmt, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	lo, err := p.affExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tComma); err != nil {
		return nil, err
	}
	hi, err := p.affExpr()
	if err != nil {
		return nil, err
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	if p.bound[name.text] {
		return nil, p.errf("DO index %s shadows an enclosing loop variable", name.text)
	}
	p.bound[name.text] = true
	defer delete(p.bound, name.text)
	body, err := p.stmts("DO")
	if err != nil {
		return nil, err
	}
	return &ir.SeqLoop{Var: name.text, Lo: lo, Hi: hi, Body: body}, nil
}

func (p *parser) reduce() (ir.Stmt, error) {
	line := p.cur().line
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	opTok, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	op, ok := map[string]ir.RedOp{"SUM": ir.RedSum, "MAX": ir.RedMax, "MIN": ir.RedMin}[opTok.text]
	if !ok {
		return nil, p.errf("unknown reduction %s", opTok.text)
	}
	if _, err := p.expect(tComma); err != nil {
		return nil, err
	}
	target, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if !p.scalars[target.text] {
		return nil, p.errf("reduction target %s is not a declared SCALAR", target.text)
	}
	var idxs []ir.Index
	for p.accept(tComma) {
		ix, err := p.indexSpec()
		if err != nil {
			return nil, err
		}
		idxs = append(idxs, ix)
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if len(idxs) == 0 {
		return nil, p.errf("REDUCE needs at least one index")
	}
	for _, ix := range idxs {
		p.bound[ix.Var] = true
	}
	defer func() {
		for _, ix := range idxs {
			delete(p.bound, ix.Var)
		}
	}()
	expr, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	return &ir.Reduce{Op: op, Target: target.text, Indexes: idxs, Expr: expr,
		Label: fmt.Sprintf("reduce@%d", line)}, nil
}

func (p *parser) let() (ir.Stmt, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	if !p.scalars[name.text] {
		return nil, p.errf("LET target %s is not a declared SCALAR", name.text)
	}
	if _, err := p.expect(tAssign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if len(ir.Refs(rhs)) > 0 {
		return nil, p.errf("LET expressions may not reference arrays")
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	return &ir.ScalarAssign{Name: name.text, RHS: rhs}, nil
}

// subDecl parses SUB name ... END SUB and records its body. Calls are
// expanded inline — parse-time inlining stands in for the
// interprocedural analysis the paper leaves to future work, giving the
// communication analysis whole-program visibility through subroutine
// boundaries.
func (p *parser) subDecl() error {
	if p.inSub {
		return p.errf("nested SUB definitions are not supported")
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return err
	}
	if _, dup := p.subs[name.text]; dup {
		return p.errf("subroutine %s redefined", name.text)
	}
	if err := p.eol(); err != nil {
		return err
	}
	p.inSub = true
	body, err := p.stmts("SUB")
	p.inSub = false
	if err != nil {
		return err
	}
	p.subs[name.text] = body
	return nil
}

// call expands a subroutine inline. A CallMarker statement wrapping the
// body would also work; sharing the statement pointers lets repeated
// calls share analysis rules and memoized schedules.
func (p *parser) call() (ir.Stmt, error) {
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	body, ok := p.subs[name.text]
	if !ok {
		return nil, p.errf("CALL of undefined subroutine %s (define SUB %s before its first call)", name.text, name.text)
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	if len(body) == 1 {
		return body[0], nil
	}
	return &ir.Block{Body: body}, nil
}

func (p *parser) exitIf() (ir.Stmt, error) {
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	var op ir.CmpOp
	switch p.cur().kind {
	case tLt:
		op = ir.Lt
	case tLe:
		op = ir.Le
	case tGt:
		op = ir.Gt
	case tGe:
		op = ir.Ge
	default:
		return nil, p.errf("expected a comparison in EXITIF")
	}
	p.pos++
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	if len(ir.Refs(l))+len(ir.Refs(r)) > 0 {
		return nil, p.errf("EXITIF conditions may not reference arrays")
	}
	if err := p.eol(); err != nil {
		return nil, err
	}
	return &ir.ExitIf{L: l, Op: op, R: r}, nil
}
