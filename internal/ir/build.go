package ir

// Construction helpers: the applications in internal/apps and tests
// build IR directly with these; the mini-HPF front end produces the
// same structures from source text.

// N returns a numeric literal expression.
func N(v float64) Expr { return Num{V: v} }

// S returns a scalar reference expression.
func S(name string) Expr { return ScalarRef{Name: name} }

// Iv returns an index-value expression (loop index as float).
func Iv(name string) Expr { return IdxVal{Name: name} }

// Ref builds an array reference.
func Ref(a *Array, subs ...AffExpr) ArrayRef {
	if len(subs) != a.Rank() {
		panic("ir: Ref rank mismatch for " + a.Name)
	}
	return ArrayRef{Array: a, Subs: subs}
}

// Plus returns l+r.
func Plus(l, r Expr) Expr { return Bin{Op: Add, L: l, R: r} }

// Minus returns l-r.
func Minus(l, r Expr) Expr { return Bin{Op: Sub, L: l, R: r} }

// Times returns l*r.
func Times(l, r Expr) Expr { return Bin{Op: Mul, L: l, R: r} }

// Over returns l/r.
func Over(l, r Expr) Expr { return Bin{Op: Div, L: l, R: r} }

// Sum4 returns a+b+c+d.
func Sum4(a, b, c, d Expr) Expr { return Plus(Plus(a, b), Plus(c, d)) }

// Idx builds a unit-step loop index.
func Idx(v string, lo, hi AffExpr) Index { return Index{Var: v, Lo: lo, Hi: hi} }

// IdxStep builds a strided loop index.
func IdxStep(v string, lo, hi AffExpr, step int) Index {
	return Index{Var: v, Lo: lo, Hi: hi, Step: step}
}

// WalkExpr applies f to e and all its sub-expressions.
func WalkExpr(e Expr, f func(Expr)) {
	f(e)
	switch x := e.(type) {
	case Bin:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case Call:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	case InnerRed:
		WalkExpr(x.Body, f)
	case Indirect:
		for _, s := range x.Subs {
			WalkExpr(s, f)
		}
	}
}

// Indirects collects every irregular reference in an expression.
func Indirects(e Expr) []Indirect {
	var out []Indirect
	WalkExpr(e, func(x Expr) {
		if r, ok := x.(Indirect); ok {
			out = append(out, r)
		}
	})
	return out
}

// Refs collects every array reference in an expression.
func Refs(e Expr) []ArrayRef {
	var out []ArrayRef
	WalkExpr(e, func(x Expr) {
		if r, ok := x.(ArrayRef); ok {
			out = append(out, r)
		}
	})
	return out
}

// WalkStmts applies f to every statement in the list and, recursively,
// to the bodies of sequential loops and blocks. Parallel-loop bodies
// are assignments, not statements, and are not visited.
func WalkStmts(stmts []Stmt, f func(Stmt)) {
	for _, s := range stmts {
		f(s)
		switch st := s.(type) {
		case *SeqLoop:
			WalkStmts(st.Body, f)
		case *Block:
			WalkStmts(st.Body, f)
		}
	}
}

// HasIndirect reports whether the program contains any irregular
// reference — such programs are outside the reach of a purely
// message-passing compilation (no inspector-executor), which is the
// paper's motivation for shared memory.
func HasIndirect(p *Program) bool {
	found := false
	WalkStmts(p.Body, func(s Stmt) {
		switch st := s.(type) {
		case *ParLoop:
			for _, as := range st.Body {
				if len(Indirects(as.RHS)) > 0 {
					found = true
				}
			}
		case *Reduce:
			if len(Indirects(st.Expr)) > 0 {
				found = true
			}
		}
	})
	return found
}
