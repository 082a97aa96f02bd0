package analysis

import (
	"fmt"
	"slices"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/sections"
)

// access is one bounded array access of a parallel loop body.
type access struct {
	ref   ir.ArrayRef
	sec   sections.Section
	write bool
	stmt  int // body statement index, for provenance
}

// boundRef bounds a reference over the loop's iteration space, clipped
// to the array extents. ok is false when the access space is empty.
func boundRef(r ir.ArrayRef, ranges map[string][2]int, env map[string]int) (sections.Section, bool) {
	sec := sections.Section{Dims: make([]sections.Dim, len(r.Subs))}
	for d, sub := range r.Subs {
		lo, hi := compiler.EvalRange(sub, ranges, env)
		if lo < 1 {
			lo = 1
		}
		if hi > r.Array.Extents[d] {
			hi = r.Array.Extents[d]
		}
		if lo > hi {
			return sec, false
		}
		sec.Dims[d] = sections.Dim{Lo: lo, Hi: hi}
	}
	return sec, true
}

// CheckRaces runs the IR-level happens-before analysis for one loop
// instance: inside a parallel loop no barrier separates iterations, so
// any overlap between writer sections on different processors, or
// between a write and a read of different elements, is unordered. The
// concurrency structure comes from the work partition: only the
// distributed loop variable spreads iterations across processors;
// loops partitioned to a single processor run their iterations
// sequentially.
func (m *Model) CheckRaces(key any, rule *compiler.LoopRule, env map[string]int, site Site, body []*ir.Assign, reduceExpr ir.Expr) {
	diag := func(sev Severity, ruleID string, s Site, format string, args ...any) {
		m.addDiag(Diag{Severity: sev, Rule: ruleID, Site: s, Msg: fmt.Sprintf(format, args...)})
		if sev == Error {
			m.report.markBroken(s.Loop, ruleID)
		}
	}

	for _, arr := range rule.IndirectArrays {
		s := site
		s.Array = arr.Name
		diag(Info, RuleRaceIndir, s,
			"irregular subscript: section analysis does not apply; the reference stays with the default coherence protocol")
	}

	ranges := m.an.VarRanges(rule, env)
	pt := m.an.Partition(key, rule, env)
	procs := 0
	for p := 0; p < m.an.NP; p++ {
		if pt.Executes(p) {
			procs++
		}
	}
	concurrent := rule.DistVar != "" && procs > 1

	// The subscript rule bounds each reference over the iterations that
	// run: a stepped index ends at its last executed value, not at its
	// bound, and a loop with an empty index runs none.
	runs, live := m.an.VarRanges(rule, env), true
	for _, ix := range rule.Indexes {
		if r := runs[ix.Var]; r[0] > r[1] {
			live = false
		} else {
			runs[ix.Var] = [2]int{r[0], r[1] - (r[1]-r[0])%ix.StepOr1()}
		}
	}

	var accs []access
	addRef := func(r ir.ArrayRef, write bool, stmt int) {
		if live {
			checkSubscripts(r, runs, env, site, diag)
		}
		sec, ok := boundRef(r, ranges, env)
		if !ok {
			return
		}
		accs = append(accs, access{ref: r, sec: sec, write: write, stmt: stmt})
	}
	for i, as := range body {
		addRef(as.LHS, true, i)
		for _, r := range ir.Refs(as.RHS) {
			addRef(r, false, i)
		}
	}
	if reduceExpr != nil {
		for _, r := range ir.Refs(reduceExpr) {
			addRef(r, false, 0)
		}
	}

	m.report.markChecked(site.Loop, RuleRaceWrite)
	m.report.markChecked(site.Loop, RuleRaceRW)

	// A write whose last subscript ignores the distributed variable is
	// executed by every owning processor of the anchor — the same
	// elements are stormed from all sides.
	if concurrent {
		for _, a := range accs {
			if !a.write {
				continue
			}
			last := a.ref.Subs[len(a.ref.Subs)-1]
			if last.Coef(rule.DistVar) == 0 {
				s := site
				s.Array = a.ref.Array.Name
				s.Sec = secString(a.sec)
				diag(Error, RuleRaceWrite, s,
					"the write's subscripts do not involve the distributed variable %s: every executing processor writes the same section concurrently",
					rule.DistVar)
			}
		}
	}

	for i := 0; i < len(accs); i++ {
		for j := i + 1; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if a.ref.Array != b.ref.Array || (!a.write && !b.write) {
				continue
			}
			if slices.EqualFunc(a.ref.Subs, b.ref.Subs, ir.AffExpr.Equal) {
				continue // same element, same iteration: body order applies
			}
			ov := sections.Intersect(a.sec, b.sec)
			if ov.Empty() {
				continue
			}
			s := site
			s.Array = a.ref.Array.Name
			s.Sec = secString(ov)
			sev := Error
			if !concurrent {
				sev = Warn // sequential execution orders it, but iteration-order dependences defeat the FORALL contract
			}
			if a.write && b.write {
				diag(sev, RuleRaceWrite, s,
					"writes %v and %v overlap on %s — no barrier separates iterations of a parallel loop",
					a.ref, b.ref, secString(ov))
			} else {
				w, r := a, b
				if !w.write {
					w, r = b, a
				}
				diag(sev, RuleRaceRW, s,
					"the loop writes %v while reading %v: the overlap %s is read and written with no separating barrier — iterations are not independent",
					w.ref, r.ref, secString(ov))
			}
		}
	}
}

// checkSubscripts reports every dimension of r that leaves its extent
// over runs, the values its variables take (program/subscript). A
// reference under an empty inner range never runs.
func checkSubscripts(r ir.ArrayRef, runs map[string][2]int, env map[string]int, site Site, diag func(Severity, string, Site, string, ...any)) {
	for _, e := range r.Subs {
		for _, t := range e.Terms {
			if rg, ok := runs[t.Var]; ok && rg[0] > rg[1] {
				return
			}
		}
	}
	site.Array = r.Array.Name
	for d, e := range r.Subs {
		if lo, hi := compiler.EvalRange(e, runs, env); lo < 1 || hi > r.Array.Extents[d] {
			diag(Error, RuleSubscript, site, "dimension %d of %v ranges over %d..%d, not in 1..%d", d+1, r, lo, hi, r.Array.Extents[d])
		}
	}
}
