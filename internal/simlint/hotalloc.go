package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags heap allocation inside functions annotated
// //simlint:hotpath: the event-dispatch loop, the access-fault path,
// the compiled affine fast loop, and the messaging freelists. The
// PR 3 rebuild took these paths to zero steady-state allocations and
// the benchmark gates assume they stay there; this analyzer pins the
// property per-function instead of per-benchmark.
//
// Flagged inside a hotpath function:
//   - &T{...}        heap-escaping composite literal
//   - []T{...}       slice literal (backing array allocation)
//   - map[K]V{...}   map literal
//   - make(map/chan) map and channel construction
//   - func(){...}    closure (context allocation)
//   - append(...)    amortized growth
//
// Plain value literals (T{...} of struct/array type) are not flagged:
// they live on the stack. A justified allocation — a freelist growing
// to its high-water mark — carries
// //simlint:ignore hotalloc -- <reason> and shows up in the summary.
// The annotation is available in every package: hot paths exist
// outside the deterministic set too.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "heap allocation inside a //simlint:hotpath function",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Directives.funcHotpath(pass.Fset, fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(n.Pos(), "&%s{...} allocates on the hot path", typeLabel(pass, lit))
				return false // inner literals are part of the same allocation
			}
		case *ast.CompositeLit:
			t := pass.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates its backing array on the hot path")
				return false
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates on the hot path")
				return false
			}
			// Value struct/array literals live on the stack; descend for
			// nested slice/map element literals.
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates its context on the hot path")
			return false // the body runs when called; its allocations are its own
		case *ast.CallExpr:
			if isBuiltinNamed(n, "append") {
				pass.Reportf(n.Pos(), "append may grow on the hot path; preallocate to the high-water mark or justify the amortization")
			} else if isBuiltinNamed(n, "make") && len(n.Args) > 0 {
				if t := pass.Info.TypeOf(n.Args[0]); t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						pass.Reportf(n.Pos(), "make(map) allocates on the hot path")
					case *types.Chan:
						pass.Reportf(n.Pos(), "make(chan) allocates on the hot path")
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// typeLabel renders the composite literal's type for the diagnostic.
func typeLabel(pass *Pass, lit *ast.CompositeLit) string {
	if t := pass.Info.TypeOf(lit); t != nil {
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		return t.String()
	}
	return "T"
}
