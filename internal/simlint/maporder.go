package simlint

import (
	"go/ast"
	"strings"
)

// MapOrder flags `for range` over a map in deterministic-path packages.
// Go randomizes map iteration order per run; any map-ordered effect on
// the simulated machine breaks bit-identity. Two escapes exist:
//
//   - the collect-then-sort idiom — a loop whose body only appends
//     keys/values to slices that are sorted later in the same block —
//     is recognized automatically and not flagged;
//   - a loop whose body is genuinely order-independent (a sum, an
//     any-/all-check, a map-to-map copy, an unordered delete) carries
//     //simlint:commutative on the line above, with the justification
//     in the surrounding comment.
var MapOrder = &Analyzer{
	Name:    "maporder",
	Doc:     "unordered map iteration in a deterministic-path package",
	Applies: isDeterministic,
	Run:     runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		walkStmtLists(f, func(list []ast.Stmt) {
			for i, s := range list {
				rs, ok := s.(*ast.RangeStmt)
				if !ok || !typeIsMap(pass.Info.TypeOf(rs.X)) {
					continue
				}
				pos := pass.Fset.Position(rs.Pos())
				if pass.Directives.CommutativeAt(pos.Filename, pos.Line) {
					continue
				}
				if isCollectThenSort(pass, rs, list[i+1:]) {
					continue
				}
				pass.Reportf(rs.Pos(), "range over map has nondeterministic order; sort the keys first or annotate //simlint:commutative with a justification")
			}
		})
	}
	// Range statements that are not directly a block statement (e.g.
	// `if x { for range m {} }` is covered — walkStmtLists descends into
	// every statement list), so every RangeStmt is visited exactly once.
}

// walkStmtLists calls fn for every statement list in f: function
// bodies, nested blocks, case and comm clauses.
func walkStmtLists(f *ast.File, fn func([]ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

// isCollectThenSort recognizes the sorted-key iteration idiom: the
// range body only appends to slice variables, and every such slice is
// passed to a sort call later in the same enclosing block.
func isCollectThenSort(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	targets := map[any]bool{} // types.Object of append targets
	if !collectOnly(pass, rs.Body.List, targets) || len(targets) == 0 {
		return false
	}
	for _, s := range rest {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || !isSortCall(call) {
			continue
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && targets[obj] {
					delete(targets, obj)
				}
			}
		}
	}
	return len(targets) == 0
}

// collectOnly reports whether every statement in list is an
// `x = append(x, ...)` accumulation (possibly under nested ifs, blocks,
// or loops), recording the append targets.
func collectOnly(pass *Pass, list []ast.Stmt, targets map[any]bool) bool {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinNamed(call, "append") {
				return false
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil {
				return false
			}
			targets[obj] = true
		case *ast.IfStmt:
			if s.Init != nil {
				return false
			}
			if !collectOnly(pass, s.Body.List, targets) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
			case *ast.BlockStmt:
				if !collectOnly(pass, e.List, targets) {
					return false
				}
			case *ast.IfStmt:
				if !collectOnly(pass, []ast.Stmt{e}, targets) {
					return false
				}
			default:
				return false
			}
		case *ast.BlockStmt:
			if !collectOnly(pass, s.List, targets) {
				return false
			}
		case *ast.RangeStmt:
			if !collectOnly(pass, s.Body.List, targets) {
				return false
			}
		case *ast.ForStmt:
			if s.Init != nil || s.Post != nil {
				return false
			}
			if !collectOnly(pass, s.Body.List, targets) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isBuiltinNamed reports whether call invokes the named builtin.
func isBuiltinNamed(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

// isSortCall recognizes sort.X / slices.X / any function whose name
// mentions sort (a package-local helper such as sortInts, for one).
func isSortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok && (x.Name == "sort" || x.Name == "slices") {
			return true
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}
