package simlint

import (
	"fmt"
	"go/ast"
)

// Goroutine enforces the one-thread-of-control discipline: inside the
// deterministic set, only scopes carrying a //simlint:concurrent
// annotation may spawn goroutines, build channels, use sync primitives
// or create coroutines (iter.Pull) — file-wide before the package clause
// (the sim kernel's scheduler file), or on one top-level declaration's
// doc comment (the network's pool keep, leaving the rest of its file
// under the single-threaded rule). The kernel
// runs each process as a coroutine it switches into and out of, so the
// scheduler and the processes never run two at once; a second scheduler
// anywhere else would reintroduce host-scheduler ordering into the
// simulated machine. The parallel-sweep runner parallelizes across
// whole runs, outside this set. An annotated scope with no concurrency
// primitive left in it surfaces as an unused-annotation finding, so
// carve-outs cannot quietly outlive the code that justified them.
var Goroutine = &Analyzer{
	Name:    "goroutine",
	Doc:     "goroutine, channel, coroutine, or sync primitive outside the sim kernel",
	Applies: isDeterministic,
	Run:     runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Package).Filename
		fileD := pass.Directives.ConcurrentFile(file)
		for _, decl := range f.Decls {
			// An admitted scope — the whole file, or this one function
			// or type — gets no reports, but only primitives actually
			// present consume its annotation.
			d := fileD
			if d == nil {
				var doc *ast.CommentGroup
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					doc = decl.Doc
				case *ast.GenDecl:
					doc = decl.Doc
				}
				d = pass.Directives.ConcurrentDecl(pass.Fset, doc)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch msg := goroutinePrimitive(pass, n); {
				case msg == "":
				case d != nil:
					d.used = true
				default:
					pass.Reportf(n.Pos(), "%s", msg)
				}
				return true
			})
		}
	}
}

// goroutinePrimitive returns the finding for n if it is one of the
// constructs the analyzer polices — a go statement, channel type, select
// statement, a sync / sync-atomic selector, or iter.Pull / iter.Pull2 —
// and "" otherwise.
func goroutinePrimitive(pass *Pass, n ast.Node) string {
	switch n := n.(type) {
	case *ast.GoStmt:
		return "go statement outside the sim kernel; processes are spawned through sim.Env.Spawn only"
	case *ast.ChanType:
		return "channel type outside the sim kernel; cross-process signaling goes through sim.Signal and the event queue"
	case *ast.SelectStmt:
		return "select statement outside the sim kernel"
	case *ast.SelectorExpr:
		obj := pass.Info.Uses[n.Sel]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		switch obj.Pkg().Path() {
		case "sync", "sync/atomic":
			return fmt.Sprintf("%s.%s introduces a sync primitive outside the sim kernel; the deterministic set is single-threaded by construction", obj.Pkg().Name(), obj.Name())
		case "iter":
			if obj.Name() == "Pull" || obj.Name() == "Pull2" {
				return fmt.Sprintf("iter.%s creates a coroutine outside the sim kernel; processes are spawned through sim.Env.Spawn only", obj.Name())
			}
		}
	}
	return ""
}
