package compiler

import (
	"hpfdsm/internal/ir"
)

// markRedundant is the partial-redundancy-elimination pass sketched in
// Section 4.3 (and planned as future work in the paper): a read
// transfer is redundant if an identical transfer — same array, same
// access pattern, same bounds — happened earlier with no intervening
// write to the array, in which case the data is still valid in the
// readers' compiler-controlled frames (which, under run-time overhead
// elimination, were never invalidated).
//
// The pass works on each statement sequence (the program body and each
// sequential loop body) treated as a cycle: a transfer may be made
// redundant by the same-iteration past or, when nothing in the whole
// cycle writes the array, by the previous iteration. Rules whose
// schedules depend on sequential loop variables (UsedSym non-empty)
// are never marked across iterations, since their sections change.
func (a *Analysis) markRedundant() {
	// A subroutine called from several sites shares its loop rules
	// between those sites (inline expansion reuses statement pointers);
	// a redundancy fact proven at one site need not hold at another, so
	// multiply-occurring rules are never marked.
	occurrences := map[*LoopRule]int{}
	ir.WalkStmts(a.Prog.Body, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.ParLoop:
			occurrences[a.loops[st]]++
		case *ir.Reduce:
			occurrences[a.reds[st]]++
		}
	})
	a.shared = map[*LoopRule]bool{}
	for r, n := range occurrences {
		if n > 1 {
			a.shared[r] = true
		}
	}
	a.markSeq(a.Prog.Body, false)
}

// markSeq processes one statement list; cyclic indicates the list is a
// loop body re-executed each iteration.
func (a *Analysis) markSeq(stmts []ir.Stmt, cyclic bool) {
	type unit struct {
		rule   *LoopRule
		writes map[string]bool // array names written (including flushes)
	}
	var units []unit
	for _, s := range flatten(stmts) { // inlined subroutines splice in
		switch st := s.(type) {
		case *ir.ParLoop:
			w := map[string]bool{}
			collectWrites([]ir.Stmt{st}, w)
			units = append(units, unit{rule: a.loops[st], writes: w})
		case *ir.Reduce:
			units = append(units, unit{rule: a.reds[st], writes: map[string]bool{}})
		case *ir.SeqLoop:
			a.markSeq(st.Body, true)
			// Conservatively treat the nested loop as writing
			// everything it writes anywhere.
			w := map[string]bool{}
			collectWrites(st.Body, w)
			units = append(units, unit{writes: w})
		}
	}

	for i, u := range units {
		if u.rule == nil || a.shared[u.rule] {
			continue
		}
		for _, rr := range u.rule.Reads {
			if rr.IsWrite {
				continue
			}
			limit := i // same-iteration lookback
			if cyclic && len(u.rule.UsedSym) == 0 {
				limit = i + len(units) // full cycle
			}
			for back := 1; back <= limit; back++ {
				j := i - back
				if j < 0 {
					j += len(units)
				}
				prev := units[j]
				if prev.writes[rr.Ref.Array.Name] {
					break // killed: the array was rewritten
				}
				if prev.rule == nil {
					continue
				}
				if matchRule(prev.rule, u.rule, rr) {
					rr.Redundant = true
					break
				}
			}
		}
	}
}

// matchRule reports whether prev contains a read rule identical to rr
// (the same pattern and the same iteration bounds for the swept
// variables), so its transfer delivered a superset of rr's data.
func matchRule(prev, cur *LoopRule, rr *RefRule) bool {
	if len(prev.UsedSym) != 0 || len(cur.UsedSym) != 0 {
		return false // symbol-dependent sections; play safe
	}
	for _, pr := range prev.Reads {
		if !pr.IsWrite && pr.same(rr) && boundsEqual(prev, cur, rr) {
			return true
		}
	}
	return false
}

// boundsEqual checks that the variables steering both rules' sections
// have identical ranges in their loops.
func boundsEqual(pl, cl *LoopRule, cr *RefRule) bool {
	// Every variable used by the current reference's subscripts must
	// have the same range in both loops.
	for _, sub := range cr.Ref.Subs {
		for _, v := range sub.Vars() {
			if !sameBounds(pl, cl, v, v) {
				return false
			}
		}
	}
	// The work partitions must match: same distributed variable range
	// (a distributed variable is a loop index, so it has one) and same
	// anchor alignment.
	if pl.DistVar != "" || cl.DistVar != "" {
		if !sameBounds(pl, cl, pl.DistVar, cl.DistVar) {
			return false
		}
		// Anchors may differ in array but must partition identically:
		// same subscript form, and the same distribution and extent.
		pa, ca := pl.Anchor, cl.Anchor
		if !pa.Subs[len(pa.Subs)-1].Equal(ca.Subs[len(ca.Subs)-1]) ||
			pa.Array.Name != ca.Array.Name && (pa.Array.LastExtent() != ca.Array.LastExtent() || pa.Array.Dist != ca.Array.Dist) {
			return false
		}
	}
	return true
}

// bounds returns a loop or inner-reduction variable's range; an inner
// reduction's bounds shadow a loop index of the same name.
func (r *LoopRule) bounds(v string) (lo, hi ir.AffExpr, ok bool) {
	if rg, in := r.inner[v]; in {
		return rg.lo, rg.hi, true
	}
	for _, ix := range r.Indexes {
		if ix.Var == v {
			lo, hi, ok = ix.Lo, ix.Hi, true
		}
	}
	return lo, hi, ok
}

// sameBounds reports whether variable pv of pl and cv of cl are both
// unbounded, or both bounded by equal expressions.
func sameBounds(pl, cl *LoopRule, pv, cv string) bool {
	plo, phi, okP := pl.bounds(pv)
	clo, chi, okC := cl.bounds(cv)
	return okP == okC && (!okP || plo.Equal(clo) && phi.Equal(chi))
}

func collectWrites(stmts []ir.Stmt, w map[string]bool) {
	ir.WalkStmts(stmts, func(s ir.Stmt) {
		if pl, ok := s.(*ir.ParLoop); ok {
			for _, as := range pl.Body {
				w[as.LHS.Array.Name] = true
			}
		}
	})
}

// flatten expands nested inlined-subroutine blocks into a flat
// statement list.
func flatten(stmts []ir.Stmt) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range stmts {
		if b, ok := s.(*ir.Block); ok {
			out = append(out, flatten(b.Body)...)
			continue
		}
		out = append(out, s)
	}
	return out
}
