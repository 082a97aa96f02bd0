package simlint

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result aggregates one run of the suite over a set of packages.
type Result struct {
	Diags        []Diagnostic // every finding, suppressed ones marked
	Suppressions []*Directive // used ignore directives, with reasons
	Commutative  int          // commutative annotations honored
	Hotpath      int          // hotpath annotations honored
	Concurrent   int          // concurrency carve-outs in use (file-wide or per-declaration)
	Packages     int
}

// Findings returns the unsuppressed findings (the ones that fail a run).
func (r *Result) Findings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunPackages applies analyzers to every package, honoring each
// analyzer's package filter, applying suppression directives, and
// reporting unused suppressions as findings of their own (a suppression
// whose violation no longer exists is stale documentation).
func RunPackages(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{Packages: len(pkgs)}
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	for _, pkg := range pkgs {
		ds, malformed := ParseDirectives(pkg.Fset, pkg.Files, names)
		res.Diags = append(res.Diags, malformed...)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				PkgPath:    pkg.Path,
				Directives: ds,
				diags:      &pkgDiags,
			}
			a.Run(pass)
		}
		for i := range pkgDiags {
			ds.suppress(&pkgDiags[i])
		}
		res.Diags = append(res.Diags, pkgDiags...)
		for _, d := range ds.all() {
			switch d.Kind {
			case DirIgnore:
				if d.used {
					res.Suppressions = append(res.Suppressions, d)
				} else {
					res.Diags = append(res.Diags, Diagnostic{
						Pos:      positionOf(d),
						Analyzer: "simlint",
						Message: fmt.Sprintf("unused suppression for %q (reason: %s); the violation it documents no longer exists — delete it",
							d.Analyzer, d.Reason),
					})
				}
			case DirCommutative:
				if d.used {
					res.Commutative++
				}
			case DirHotpath:
				if d.used {
					res.Hotpath++
				}
			case DirConcurrent:
				if d.used {
					res.Concurrent++
				} else {
					res.Diags = append(res.Diags, Diagnostic{
						Pos:      positionOf(d),
						Analyzer: "simlint",
						Message: fmt.Sprintf("unused concurrent carve-out (reason: %s); the annotated scope no longer uses goroutines, channels, coroutines, or sync primitives — delete it",
							d.Reason),
					})
				}
			}
		}
	}
	sortDiags(res.Diags)
	return res
}

func positionOf(d *Directive) (p token.Position) {
	p.Filename = d.File
	p.Line = d.Line
	p.Column = 1
	return p
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Format renders the result: unsuppressed findings first, then the
// tracked-suppression summary (every accepted violation with its
// reason, like the HPF-level verifier's report). Paths are shown
// relative to root.
func (r *Result) Format(w io.Writer, root string) {
	rel := func(p string) string {
		if root == "" {
			return p
		}
		if rp, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(rp, "..") {
			return rp
		}
		return p
	}
	findings := r.Findings()
	for _, d := range findings {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	fmt.Fprintf(w, "simlint: %d package(s): %d finding(s), %d suppressed, %d commutative annotation(s), %d hotpath function(s), %d concurrent carve-out(s)\n",
		r.Packages, len(findings), len(r.Suppressions), r.Commutative, r.Hotpath, r.Concurrent)
	if len(r.Suppressions) > 0 {
		fmt.Fprintf(w, "tracked suppressions:\n")
		for _, s := range r.Suppressions {
			fmt.Fprintf(w, "  %s:%d: %s -- %s\n", rel(s.File), s.Line, s.Analyzer, s.Reason)
		}
	}
}

// Main is the cmd/simlint entry point: load the module packages
// matching the patterns (default ./...), run the registered suite, and
// render the report. Returns the process exit code: 0 clean, 1 on any
// unsuppressed finding, 2 on a load failure.
func Main(args []string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	root, err := ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res := RunPackages(pkgs, Analyzers())
	res.Format(stdout, root)
	if len(res.Findings()) > 0 {
		return 1
	}
	return 0
}
