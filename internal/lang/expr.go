package lang

import (
	"strconv"

	"hpfdsm/internal/ir"
)

// --- Affine expressions (bounds, subscripts) ---------------------------

// affExpr parses sums/differences of affine terms: INT, IDENT,
// INT '*' IDENT, IDENT '*' INT, with unary minus.
func (p *parser) affExpr() (ir.AffExpr, error) {
	e, err := p.affTerm(p.accept(tMinus))
	if err != nil {
		return ir.AffExpr{}, err
	}
	for {
		switch {
		case p.accept(tPlus):
			t, err := p.affTerm(false)
			if err != nil {
				return ir.AffExpr{}, err
			}
			e = e.Add(t)
		case p.accept(tMinus):
			t, err := p.affTerm(false)
			if err != nil {
				return ir.AffExpr{}, err
			}
			e = e.Sub(t)
		default:
			return e, nil
		}
	}
}

func (p *parser) affTerm(neg bool) (ir.AffExpr, error) {
	var e ir.AffExpr
	switch p.cur().kind {
	case tInt:
		tok := p.next()
		n, err := strconv.Atoi(tok.text)
		if err != nil {
			return e, p.errf("integer %s is out of range", tok.text)
		}
		e = ir.Aff(n)
		if p.accept(tStar) {
			id, err := p.expect(tIdent)
			if err != nil {
				return e, err
			}
			e = ir.V(id.text).Scale(n)
		}
	case tIdent:
		id := p.next()
		e = ir.V(id.text)
		if p.accept(tStar) {
			n, err := p.expect(tInt)
			if err != nil {
				return e, err
			}
			k, err := strconv.Atoi(n.text)
			if err != nil {
				return e, p.errf("coefficient %s is out of range", n.text)
			}
			e = e.Scale(k)
		}
	default:
		return e, p.errf("expected an affine term, found %v %q", p.cur().kind, p.cur().text)
	}
	if neg {
		e = e.Scale(-1)
	}
	return e, nil
}

// constEval evaluates an affine expression using PARAM values only.
func (p *parser) constEval(e ir.AffExpr) (int, error) {
	v := e.Const
	for _, t := range e.Terms {
		pv, ok := p.prog.Params[t.Var]
		if !ok {
			return 0, p.errf("%s is not a PARAM; extents must be compile-time constants", t.Var)
		}
		v += t.Coef * pv
	}
	return v, nil
}

// --- Value expressions ---------------------------------------------------

var intrinsics = map[string]int{
	"SQRT": 1, "ABS": 1, "EXP": 1, "SIN": 1, "COS": 1,
	"MIN": 2, "MAX": 2, "MOD": 2,
}

var innerRedOps = map[string]ir.RedOp{
	"SUM": ir.RedSum, "SMAX": ir.RedMax, "SMIN": ir.RedMin,
}

func (p *parser) expr() (ir.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tPlus):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = ir.Plus(l, r)
		case p.accept(tMinus):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = ir.Minus(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (ir.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tStar):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = ir.Times(l, r)
		case p.accept(tSlash):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = ir.Over(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (ir.Expr, error) {
	if p.accept(tMinus) {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return ir.Minus(ir.N(0), e), nil
	}
	return p.atom()
}

func (p *parser) atom() (ir.Expr, error) {
	switch p.cur().kind {
	case tInt, tFloat:
		t := p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return ir.N(v), nil
	case tLParen:
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tIdent:
		return p.identExpr()
	default:
		return nil, p.errf("expected an expression, found %v %q", p.cur().kind, p.cur().text)
	}
}

func (p *parser) identExpr() (ir.Expr, error) {
	id := p.next().text

	// Inner reduction: SUM(i = 1:m, expr).
	if op, ok := innerRedOps[id]; ok && p.cur().kind == tLParen && p.peekInnerRed() {
		p.pos++ // '('
		ix, err := p.indexSpec()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		if p.bound[ix.Var] {
			return nil, p.errf("inner index %s shadows an enclosing loop variable", ix.Var)
		}
		p.bound[ix.Var] = true
		body, err := p.expr()
		delete(p.bound, ix.Var)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return ir.InnerRed{Op: op, Var: ix.Var, Lo: ix.Lo, Hi: ix.Hi, Body: body}, nil
	}

	// Intrinsic call.
	if nargs, ok := intrinsics[id]; ok && p.cur().kind == tLParen {
		p.pos++
		var args []ir.Expr
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.accept(tRParen) {
				break
			}
			if _, err := p.expect(tComma); err != nil {
				return nil, err
			}
		}
		if len(args) != nargs {
			return nil, p.errf("%s takes %d argument(s), got %d", id, nargs, len(args))
		}
		return ir.Call{Fn: id, Args: args}, nil
	}

	// Array reference: affine subscripts give an analyzable ArrayRef;
	// anything else (an index-array subscript like v(ix(i)), or a
	// non-affine expression like a(i*j)) becomes an irregular Indirect
	// reference served by the default coherence protocol.
	if arr, ok := p.arrays[id]; ok {
		return p.arrayAccess(arr)
	}

	// Scalar, loop variable, or parameter as a value.
	switch {
	case p.scalars[id]:
		return ir.S(id), nil
	case p.bound[id]:
		return ir.Iv(id), nil
	default:
		if _, ok := p.prog.Params[id]; ok {
			return ir.Iv(id), nil
		}
	}
	return nil, p.errf("unknown identifier %q", id)
}

// peekInnerRed looks past '(' for "ident =", distinguishing an inner
// reduction from array-style usage of the SUM name.
func (p *parser) peekInnerRed() bool {
	return p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tIdent &&
		p.toks[p.pos+2].kind == tAssign
}

// arrayAccess parses arr's subscript list for an expression context,
// accepting both affine and irregular subscripts.
func (p *parser) arrayAccess(arr *ir.Array) (ir.Expr, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var affs []ir.AffExpr
	var exprs []ir.Expr
	irregular := false
	for {
		save := p.pos
		a, err := p.affExpr()
		if err == nil && (p.cur().kind == tComma || p.cur().kind == tRParen) {
			affs = append(affs, a)
			exprs = append(exprs, affToExpr(a))
		} else {
			p.pos = save
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			irregular = true
			affs = append(affs, ir.AffExpr{})
			exprs = append(exprs, e)
		}
		if p.accept(tRParen) {
			break
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
	}
	if len(affs) != arr.Rank() {
		return nil, p.errf("array %s has rank %d, subscripted with %d", arr.Name, arr.Rank(), len(affs))
	}
	if irregular {
		return ir.Indirect{Array: arr, Subs: exprs}, nil
	}
	return ir.ArrayRef{Array: arr, Subs: affs}, nil
}

// affToExpr converts an affine expression to a value expression.
func affToExpr(a ir.AffExpr) ir.Expr {
	var e ir.Expr = ir.N(float64(a.Const))
	for _, t := range a.Terms {
		term := ir.Expr(ir.Iv(t.Var))
		if t.Coef != 1 {
			term = ir.Times(ir.N(float64(t.Coef)), term)
		}
		e = ir.Plus(e, term)
	}
	return e
}

// arrayRef parses the subscript list of arr (the name is consumed).
func (p *parser) arrayRef(arr *ir.Array) (ir.ArrayRef, error) {
	if _, err := p.expect(tLParen); err != nil {
		return ir.ArrayRef{}, err
	}
	var subs []ir.AffExpr
	for {
		s, err := p.affExpr()
		if err != nil {
			return ir.ArrayRef{}, err
		}
		// Subscript variables must be loop indices or parameters.
		for _, v := range s.Vars() {
			if !p.bound[v] {
				if _, ok := p.prog.Params[v]; !ok {
					return ir.ArrayRef{}, p.errf("subscript variable %q is not a loop index or PARAM", v)
				}
			}
		}
		subs = append(subs, s)
		if p.accept(tRParen) {
			break
		}
		if _, err := p.expect(tComma); err != nil {
			return ir.ArrayRef{}, err
		}
	}
	if len(subs) != arr.Rank() {
		return ir.ArrayRef{}, p.errf("array %s has rank %d, subscripted with %d", arr.Name, arr.Rank(), len(subs))
	}
	return ir.ArrayRef{Array: arr, Subs: subs}, nil
}
