// Package simlint is a custom static-analysis suite over this
// repository's own Go source. Every result the reproduction publishes
// rests on bit-identical determinism — the golden/differential layer,
// the fault and crash soak bit-identity tests, and the sim-ms drift
// gates all assume the simulator introduces no nondeterminism and no
// per-event allocation on its hot paths. The HPF programs are verified
// by internal/analysis; simlint verifies the simulator itself,
// machine-checking the discipline that otherwise lives in comments:
//
//   - maporder:  no unordered map iteration in deterministic paths
//   - wallclock: no wall-clock time, unseeded randomness, or
//     environment reads in sim-visible packages
//   - freelist:  no use-after-Recycle / double-Recycle / Retain
//     misuse of pooled messages and payload buffers
//   - hotalloc:  no heap allocation inside //simlint:hotpath functions
//   - goroutine: no new goroutines, channels, coroutines (iter.Pull),
//     or sync primitives outside the sim kernel (one thread of control)
//
// The framework is stdlib-only (go/parser, go/ast, go/types, go/token);
// go.mod stays dependency-free. Packages are loaded with full type
// information through `go list -export` and the gc importer (load.go).
//
// Findings are suppressed one at a time with
//
//	//simlint:ignore <analyzer> -- <reason>
//
// placed on, or on the line above, the offending line (or before the
// package clause for a file-wide waiver). The reason is mandatory and
// every suppression is reported in the driver's summary, mirroring the
// tracked suppressions of the HPF-level verifier. Three further
// annotations feed specific analyzers: //simlint:commutative marks a
// map-ranging loop whose body is order-independent,
// //simlint:hotpath opts a function into the hotalloc discipline, and
// //simlint:concurrent (mandatory reason) admits a scope into the
// goroutine analyzer's concurrency carve-out: placed before the
// package clause it admits the whole file (the sim kernel's scheduler
// file), placed on a single top-level declaration's doc comment it
// admits just that function or type — the narrow form the PDES barrier
// uses, so the rest of its file stays under the single-threaded
// discipline. Anything else using goroutines, channels, coroutines, or
// sync primitives in the deterministic set still fails.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages by import path; nil means every package.
	// The registry wires the deterministic-path and sim-visible sets
	// here; fixture tests bypass it by invoking Run directly.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	PkgPath    string
	Directives *DirectiveSet

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding with file:line provenance. Suppressed
// findings stay in the result (they are reported in the summary) but
// do not fail the run.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// --- Directives ------------------------------------------------------

// Directive kinds.
const (
	DirIgnore      = "ignore"      // suppress one analyzer's findings at a line (or file-wide)
	DirCommutative = "commutative" // the annotated map range is order-independent
	DirHotpath     = "hotpath"     // the annotated function must not allocate
	DirConcurrent  = "concurrent"  // this file or declaration may use goroutines/channels/sync (reason mandatory)
)

// Directive is one parsed //simlint: comment.
type Directive struct {
	Kind     string
	Analyzer string // DirIgnore only
	Reason   string // mandatory for DirIgnore, optional otherwise
	File     string
	Line     int
	FileWide bool // written before the package clause
	used     bool
}

func (d *Directive) String() string {
	s := fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Kind)
	if d.Analyzer != "" {
		s += " " + d.Analyzer
	}
	if d.Reason != "" {
		s += " -- " + d.Reason
	}
	return s
}

// DirectiveSet holds every directive of one package, indexed by file.
type DirectiveSet struct {
	byFile map[string][]*Directive
}

const directivePrefix = "//simlint:"

// ParseDirectives extracts //simlint: directives from every comment in
// files. Malformed directives (unknown kind, unknown analyzer, missing
// mandatory reason) are returned as diagnostics attributed to the
// pseudo-analyzer "simlint"; they are never suppressible.
func ParseDirectives(fset *token.FileSet, files []*ast.File, analyzerNames map[string]bool) (*DirectiveSet, []Diagnostic) {
	ds := &DirectiveSet{byFile: map[string][]*Directive{}}
	var malformed []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		malformed = append(malformed, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "simlint",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		pkgLine := fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				kind, args, _ := strings.Cut(rest, " ")
				args, reason, hasReason := cutReason(args)
				d := &Directive{
					Kind:     kind,
					Reason:   reason,
					File:     pos.Filename,
					Line:     pos.Line,
					FileWide: pos.Line < pkgLine,
				}
				switch kind {
				case DirIgnore:
					d.Analyzer = strings.TrimSpace(args)
					if d.Analyzer == "" || !analyzerNames[d.Analyzer] {
						bad(c.Pos(), "malformed directive %q: ignore needs a known analyzer name", c.Text)
						continue
					}
					if !hasReason || reason == "" {
						bad(c.Pos(), "malformed directive %q: a suppression must carry a reason (\"//simlint:ignore %s -- why it is safe\")", c.Text, d.Analyzer)
						continue
					}
				case DirCommutative, DirHotpath:
					// Reason optional; trailing words without the
					// " -- " separator are a mistake.
					if strings.TrimSpace(args) != "" {
						bad(c.Pos(), "malformed directive %q: unexpected arguments (use \"-- reason\" for a justification)", c.Text)
						continue
					}
				case DirConcurrent:
					// A concurrency carve-out — whether for a whole
					// file (before the package clause) or one
					// declaration (in its doc comment) — must say why
					// it is safe.
					if strings.TrimSpace(args) != "" {
						bad(c.Pos(), "malformed directive %q: unexpected arguments (use \"//simlint:concurrent -- why the scope is safe\")", c.Text)
						continue
					}
					if !hasReason || reason == "" {
						bad(c.Pos(), "malformed directive %q: a concurrency carve-out must carry a reason (\"//simlint:concurrent -- why the scope is safe\")", c.Text)
						continue
					}
				default:
					bad(c.Pos(), "malformed directive %q: unknown kind %q", c.Text, kind)
					continue
				}
				ds.byFile[pos.Filename] = append(ds.byFile[pos.Filename], d)
			}
		}
	}
	return ds, malformed
}

// cutReason splits "args -- reason" around the mandatory separator.
func cutReason(s string) (args, reason string, ok bool) {
	if a, r, found := strings.Cut(s, "--"); found {
		return strings.TrimSpace(a), strings.TrimSpace(r), true
	}
	return strings.TrimSpace(s), "", false
}

// at reports a directive of the given kind attached to line: written on
// the line itself or on the line directly above.
func (ds *DirectiveSet) at(kind, file string, line int) *Directive {
	for _, d := range ds.byFile[file] {
		if d.Kind == kind && !d.FileWide && (d.Line == line || d.Line == line-1) {
			return d
		}
	}
	return nil
}

// CommutativeAt reports whether a //simlint:commutative annotation is
// attached to the given line, consuming it.
func (ds *DirectiveSet) CommutativeAt(file string, line int) bool {
	if d := ds.at(DirCommutative, file, line); d != nil {
		d.used = true
		return true
	}
	return false
}

// ConcurrentFile returns the file-wide //simlint:concurrent directive
// for file, or nil. The caller (the goroutine analyzer) marks it used
// only when the file actually contains a concurrency primitive, so a
// stale carve-out on a since-cleaned file surfaces as an unused
// annotation finding.
func (ds *DirectiveSet) ConcurrentFile(file string) *Directive {
	for _, d := range ds.byFile[file] {
		if d.Kind == DirConcurrent && d.FileWide {
			return d
		}
	}
	return nil
}

// ConcurrentDecl returns the //simlint:concurrent directive written in
// the given declaration doc comment, or nil. Like ConcurrentFile, the
// caller marks it used only when the declaration actually contains a
// concurrency primitive, so a carve-out on a since-cleaned function or
// type surfaces as an unused-annotation finding.
func (ds *DirectiveSet) ConcurrentDecl(fset *token.FileSet, doc *ast.CommentGroup) *Directive {
	if doc == nil {
		return nil
	}
	pos := fset.Position(doc.Pos())
	end := fset.Position(doc.End())
	for _, d := range ds.byFile[pos.Filename] {
		if d.Kind == DirConcurrent && !d.FileWide && d.Line >= pos.Line && d.Line <= end.Line {
			return d
		}
	}
	return nil
}

// suppress marks diag suppressed if a matching ignore directive exists,
// recording the directive as used.
func (ds *DirectiveSet) suppress(diag *Diagnostic) bool {
	for _, d := range ds.byFile[diag.Pos.Filename] {
		if d.Kind != DirIgnore || d.Analyzer != diag.Analyzer {
			continue
		}
		if d.FileWide || d.Line == diag.Pos.Line || d.Line == diag.Pos.Line-1 {
			d.used = true
			diag.Suppressed = true
			diag.Reason = d.Reason
			return true
		}
	}
	return false
}

// all returns every directive in deterministic (file, line) order.
func (ds *DirectiveSet) all() []*Directive {
	var out []*Directive
	for _, l := range ds.byFile {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// funcHotpath reports whether fn carries the //simlint:hotpath
// annotation in its doc comment, consuming the directive.
func (ds *DirectiveSet) funcHotpath(fset *token.FileSet, fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	found := false
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix+DirHotpath) {
			found = true
		}
	}
	if !found {
		return false
	}
	pos := fset.Position(fn.Doc.Pos())
	end := fset.Position(fn.Pos())
	for _, d := range ds.byFile[pos.Filename] {
		if d.Kind == DirHotpath && d.Line >= pos.Line && d.Line <= end.Line {
			d.used = true
		}
	}
	return true
}

// typeIsMap reports whether t ranges as a map.
func typeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
