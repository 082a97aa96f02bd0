package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Freelist is an intra-function lifetime check on values drawn from the
// network's pools (NewMessage, NewDataMessage, AllocBlock, AllocVar).
// The pools power
// the zero-steady-state-allocation messaging layer; their contract is
// ownership-shaped and easy to violate silently:
//
//   - a value used after it was Recycled aliases the freelist — the
//     next NewMessage hands the same object to an unrelated sender;
//   - a double Recycle puts the object on the freelist twice, so two
//     future allocations alias each other;
//   - Retain takes a reference for a holder that keeps a delivered
//     message and must precede the Recycle it outlives: a Retain after
//     the Recycle already happened retains a freelist entry.
//
// The check is conservative: a Recycle only kills the value for
// statements it unconditionally precedes (same or enclosing block, in
// source order); conditional recycles, loop back-edges, and deferred
// recycles are not tracked.
var Freelist = &Analyzer{
	Name:    "freelist",
	Doc:     "use-after-Recycle, double Recycle, or unbalanced Retain on pooled values",
	Applies: isDeterministic,
	Run:     runFreelist,
}

// poolAllocNames are the pool entry points whose results are tracked.
var poolAllocNames = map[string]bool{
	"NewMessage": true, "NewDataMessage": true, "AllocBlock": true, "AllocVar": true,
}

const (
	flAlloc = iota
	flRecycle
	flRetain
	flUse
	flKill // reassignment from a non-pool source
)

// flEvent is one occurrence of a tracked variable, with the chain of
// enclosing statement-list nodes that decides conditionality.
type flEvent struct {
	kind     int
	pos      token.Pos
	chain    []ast.Node
	deferred bool
}

func runFreelist(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFreelistFunc(pass, fd)
			return true
		})
	}
}

func checkFreelistFunc(pass *Pass, fd *ast.FuncDecl) {
	events := map[*types.Var][]*flEvent{}
	w := &flWalker{pass: pass, events: events}
	w.stmts(fd.Body.List, nil, false)
	// Deterministic report order: by variable first-occurrence position.
	var vars []*types.Var
	for v := range events {
		vars = append(vars, v)
	}
	sortVarsByPos(vars, events)
	for _, v := range vars {
		evs := events[v]
		var lastRecycle *flEvent
		for _, e := range evs {
			if lastRecycle != nil && chainPrefix(lastRecycle.chain, e.chain) && !e.deferred {
				switch e.kind {
				case flUse:
					pass.Reportf(e.pos, "%s used after Recycle; the value is back on the freelist and may alias a future allocation", v.Name())
				case flRecycle:
					pass.Reportf(e.pos, "double Recycle of %s; the freelist now holds it twice and two future allocations will alias", v.Name())
				case flRetain:
					pass.Reportf(e.pos, "Retain of %s after Recycle; Retain must precede the Recycle it is meant to prevent", v.Name())
				case flAlloc, flKill:
					lastRecycle = nil
					continue
				}
				break // one report per variable; later uses are cascade
			}
			switch e.kind {
			case flAlloc, flKill:
				lastRecycle = nil
			case flRecycle:
				if !e.deferred && lastRecycle == nil {
					lastRecycle = e
				}
			}
		}
	}
}

func sortVarsByPos(vars []*types.Var, events map[*types.Var][]*flEvent) {
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && events[vars[j]][0].pos < events[vars[j-1]][0].pos; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
}

// chainPrefix reports whether a's enclosing-block chain is a prefix of
// b's: a executing implies the blocks leading to b's location were not
// skipped around a.
func chainPrefix(a, b []ast.Node) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// flWalker walks statements in source order, recording events for
// variables bound to pool allocations.
type flWalker struct {
	pass   *Pass
	events map[*types.Var][]*flEvent
	chain  []ast.Node
}

func (w *flWalker) record(v *types.Var, kind int, pos token.Pos, deferred bool) {
	chain := make([]ast.Node, len(w.chain))
	copy(chain, w.chain)
	w.events[v] = append(w.events[v], &flEvent{kind: kind, pos: pos, chain: chain, deferred: deferred})
}

func (w *flWalker) obj(id *ast.Ident) *types.Var {
	o := w.pass.Info.Uses[id]
	if o == nil {
		o = w.pass.Info.Defs[id]
	}
	v, _ := o.(*types.Var)
	return v
}

// tracked reports whether v already has events (i.e. was pool-bound).
func (w *flWalker) tracked(v *types.Var) bool {
	_, ok := w.events[v]
	return ok
}

func (w *flWalker) stmts(list []ast.Stmt, block ast.Node, deferred bool) {
	if block != nil {
		w.chain = append(w.chain, block)
		defer func() { w.chain = w.chain[:len(w.chain)-1] }()
	}
	for _, s := range list {
		w.stmt(s, deferred)
	}
}

func (w *flWalker) stmt(s ast.Stmt, deferred bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// RHS first (uses happen before the assignment takes effect).
		for _, r := range s.Rhs {
			w.expr(r, deferred)
		}
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if v := w.obj(id); v != nil {
					if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isPoolAlloc(call) {
						w.record(v, flAlloc, id.Pos(), deferred)
						return
					}
					if w.tracked(v) {
						w.record(v, flKill, id.Pos(), deferred)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, deferred)
	case *ast.DeferStmt:
		w.expr(s.Call, true)
	case *ast.GoStmt:
		w.expr(s.Call, true)
	case *ast.BlockStmt:
		w.stmts(s.List, s, deferred)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, deferred)
		}
		w.expr(s.Cond, deferred)
		w.stmts(s.Body.List, s.Body, deferred)
		if s.Else != nil {
			w.stmt(s.Else, deferred)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, deferred)
		}
		if s.Cond != nil {
			w.expr(s.Cond, deferred)
		}
		w.stmts(s.Body.List, s.Body, deferred)
		if s.Post != nil {
			w.stmt(s.Post, deferred)
		}
	case *ast.RangeStmt:
		w.expr(s.X, deferred)
		w.stmts(s.Body.List, s.Body, deferred)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, deferred)
		}
		if s.Tag != nil {
			w.expr(s.Tag, deferred)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, deferred)
				}
				w.stmts(cc.Body, cc, deferred)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, deferred)
		}
		w.stmt(s.Assign, deferred)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, cc, deferred)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, deferred)
		}
	case *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt:
		if gd, ok := s.(*ast.DeclStmt); ok {
			ast.Inspect(gd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					w.ident(id, deferred)
				}
				return true
			})
		}
	case *ast.IncDecStmt:
		w.expr(s.X, deferred)
	case *ast.SendStmt:
		w.expr(s.Chan, deferred)
		w.expr(s.Value, deferred)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, deferred)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, deferred)
				}
				w.stmts(cc.Body, cc, deferred)
			}
		}
	}
}

// expr records events for tracked variables inside e, classifying
// Recycle and Retain calls specially.
func (w *flWalker) expr(e ast.Expr, deferred bool) {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Recycle":
				// n.Recycle(m) — the argument dies. m.Recycle() — the
				// receiver dies.
				if len(call.Args) == 1 {
					if id, ok := call.Args[0].(*ast.Ident); ok {
						if v := w.obj(id); v != nil && w.tracked(v) {
							w.expr(sel.X, deferred)
							w.record(v, flRecycle, id.Pos(), deferred)
							return
						}
					}
				}
				if id, ok := sel.X.(*ast.Ident); ok && len(call.Args) == 0 {
					if v := w.obj(id); v != nil && w.tracked(v) {
						w.record(v, flRecycle, id.Pos(), deferred)
						return
					}
				}
			case "Retain":
				if id, ok := sel.X.(*ast.Ident); ok && len(call.Args) == 0 {
					if v := w.obj(id); v != nil && w.tracked(v) {
						w.record(v, flRetain, id.Pos(), deferred)
						return
					}
				}
			}
		}
		// Function literals passed as arguments run later; their bodies
		// are treated as conditional (deferred) uses.
		for _, a := range call.Args {
			if fl, ok := a.(*ast.FuncLit); ok {
				w.funcLit(fl)
			} else {
				w.expr(a, deferred)
			}
		}
		w.expr(call.Fun, deferred)
		return
	}
	if fl, ok := e.(*ast.FuncLit); ok {
		w.funcLit(fl)
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			w.ident(id, deferred)
		}
		return true
	})
}

// funcLit records every tracked-variable occurrence in a closure body
// as a deferred use (the closure may run at any later time).
func (w *flWalker) funcLit(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			w.ident(id, true)
		}
		return true
	})
}

func (w *flWalker) ident(id *ast.Ident, deferred bool) {
	if v := w.obj(id); v != nil && w.tracked(v) {
		w.record(v, flUse, id.Pos(), deferred)
	}
}

// isPoolAlloc recognizes calls to the pool entry points by method name:
// x.NewMessage(), x.NewDataMessage(b), x.AllocBlock(), x.AllocVar(n).
func isPoolAlloc(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && poolAllocNames[sel.Sel.Name]
}
