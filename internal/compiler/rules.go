package compiler

import (
	"fmt"
	"sort"

	"hpfdsm/internal/ir"
)

// buildRules walks the program and compiles a LoopRule for every
// parallel loop and global reduction.
func (a *Analysis) buildRules() error {
	var err error
	ir.WalkStmts(a.Prog.Body, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.ParLoop:
			if err == nil {
				a.loops[st], err = a.analyzeLoop(st)
			}
		case *ir.Reduce:
			if err == nil {
				a.reds[st], err = a.analyzeReduce(st)
			}
		}
	})
	return err
}

// LoopRuleOf returns the compiled rule for a parallel loop.
func (a *Analysis) LoopRuleOf(l *ir.ParLoop) *LoopRule { return a.loops[l] }

// ReduceRuleOf returns the compiled rule for a reduction.
func (a *Analysis) ReduceRuleOf(r *ir.Reduce) *LoopRule { return a.reds[r] }

func (a *Analysis) analyzeLoop(pl *ir.ParLoop) (*LoopRule, error) {
	if len(pl.Body) == 0 {
		return nil, fmt.Errorf("compiler: loop %s has no assignments", pl.Label)
	}
	anchor := pl.Body[0].LHS
	if pl.OnHome != nil {
		anchor = *pl.OnHome
	}
	rule, err := a.newRule(pl.Label, anchor, pl.Indexes)
	if err != nil {
		return nil, err
	}
	// Reads: every array reference on any right-hand side.
	for _, as := range pl.Body {
		rule.mergeInner(collectInnerRanges(as.RHS))
		for _, ref := range ir.Refs(as.RHS) {
			if err := rule.addRef(a, ref, false); err != nil {
				return nil, fmt.Errorf("loop %s: %w", pl.Label, err)
			}
		}
		rule.noteIndirects(as.RHS)
	}
	// Writes: left-hand sides that are not aligned with the anchor.
	for _, as := range pl.Body {
		if err := rule.addRef(a, as.LHS, true); err != nil {
			return nil, fmt.Errorf("loop %s: %w", pl.Label, err)
		}
	}
	a.finishRule(rule, pl.Indexes)
	return rule, nil
}

func (a *Analysis) analyzeReduce(rd *ir.Reduce) (*LoopRule, error) {
	refs := ir.Refs(rd.Expr)
	if len(refs) == 0 {
		return nil, fmt.Errorf("compiler: reduction %s references no arrays", rd.Label)
	}
	rule, err := a.newRule(rd.Label, refs[0], rd.Indexes)
	if err != nil {
		return nil, err
	}
	rule.mergeInner(collectInnerRanges(rd.Expr))
	for _, ref := range refs {
		if err := rule.addRef(a, ref, false); err != nil {
			return nil, fmt.Errorf("reduction %s: %w", rd.Label, err)
		}
	}
	rule.noteIndirects(rd.Expr)
	a.finishRule(rule, rd.Indexes)
	return rule, nil
}

// innerRange records an inner-reduction variable's bounds.
type innerRange struct {
	lo, hi ir.AffExpr
}

func collectInnerRanges(e ir.Expr) map[string]innerRange {
	out := map[string]innerRange{}
	ir.WalkExpr(e, func(x ir.Expr) {
		if r, ok := x.(ir.InnerRed); ok {
			out[r.Var] = innerRange{r.Lo, r.Hi}
		}
	})
	return out
}

func (a *Analysis) newRule(label string, anchor ir.ArrayRef, indexes []ir.Index) (*LoopRule, error) {
	loopVars := map[string]bool{}
	for _, ix := range indexes {
		loopVars[ix.Var] = true
	}
	last := anchor.Subs[len(anchor.Subs)-1]
	distVar := ""
	for _, t := range last.Terms {
		if !loopVars[t.Var] {
			continue
		}
		if t.Coef != 1 {
			return nil, fmt.Errorf("compiler: %s: distributed subscript %v of %s has coefficient %d (only 1 supported)",
				label, last, anchor.Array.Name, t.Coef)
		}
		if distVar != "" {
			return nil, fmt.Errorf("compiler: %s: distributed subscript %v uses two loop variables", label, last)
		}
		distVar = t.Var
	}
	// Note: the distributed variable may appear in the anchor's row
	// dimensions (e.g. a diagonal update a(j,j) = ...); such accesses
	// are owner-local by construction. Communicating references with
	// the distributed variable in a row dimension are rejected in
	// addRef.
	rest := last
	if distVar != "" {
		rest = rest.Sub(ir.V(distVar))
	}
	return &LoopRule{Anchor: anchor, DistVar: distVar, Indexes: indexes, anchorRest: rest}, nil
}

// noteIndirects records arrays read through irregular subscripts.
func (r *LoopRule) noteIndirects(e ir.Expr) {
	for _, ix := range ir.Indirects(e) {
		dup := false
		for _, have := range r.IndirectArrays {
			if have == ix.Array {
				dup = true
			}
		}
		if !dup {
			r.IndirectArrays = append(r.IndirectArrays, ix.Array)
		}
	}
}

// addRef classifies one reference and appends a communication rule if
// it can require data movement.
func (r *LoopRule) mergeInner(inner map[string]innerRange) {
	if r.inner == nil {
		r.inner = map[string]innerRange{}
	}
	for v, rg := range inner {
		r.inner[v] = rg
	}
}

func (r *LoopRule) addRef(a *Analysis, ref ir.ArrayRef, isWrite bool) error {
	loopVars := map[string]bool{}
	for _, ix := range r.Indexes {
		loopVars[ix.Var] = true
	}
	for v := range r.inner {
		loopVars[v] = true
	}
	last := ref.Subs[len(ref.Subs)-1]

	var kind RefKind
	sweep := ""
	rest := last
	for _, t := range last.Terms {
		if !loopVars[t.Var] {
			continue // symbol, stays in rest
		}
		if t.Coef != 1 {
			return fmt.Errorf("reference %v: loop variable %s has coefficient %d in the distributed subscript", ref, t.Var, t.Coef)
		}
		if sweep != "" {
			return fmt.Errorf("reference %v: two loop variables in the distributed subscript", ref)
		}
		sweep = t.Var
		rest = rest.Sub(ir.V(t.Var))
	}
	switch {
	case sweep == "":
		kind = KindFixed
	case sweep == r.DistVar:
		kind = KindShift
	default:
		kind = KindGather
	}
	if isWrite && kind == KindGather {
		return fmt.Errorf("reference %v: gather-style write would be a concurrent write", ref)
	}

	// Aligned references never communicate: same swept variable, the
	// same offset as the anchor (which an ON HOME directive may have
	// made nonzero), and identical distribution parameters.
	if kind == KindShift && a.sameDist(ref.Array, r.Anchor.Array) {
		if rest.Equal(r.anchorRest) {
			return nil
		}
	}
	// The distributed variable must not steer a row dimension.
	for d := 0; d < len(ref.Subs)-1; d++ {
		if r.DistVar != "" && ref.Subs[d].Coef(r.DistVar) != 0 {
			return fmt.Errorf("reference %v: distributed variable in row dimension %d", ref, d)
		}
	}

	rr := &RefRule{Ref: ref, Kind: kind, Rest: rest, SweepVar: sweep, IsWrite: isWrite}
	list := &r.Reads
	if isWrite {
		list = &r.Writes
	}
	for _, have := range *list {
		if have.same(rr) {
			return nil // duplicate reference, one transfer suffices
		}
	}
	*list = append(*list, rr)
	return nil
}

func (a *Analysis) sameDist(x, y *ir.Array) bool {
	dx, dy := a.dists[x], a.dists[y]
	return dx.Kind == dy.Kind && dx.Extent == dy.Extent && dx.ChunkSize() == dy.ChunkSize()
}

// finishRule records the free symbols the rule's schedule depends on.
func (a *Analysis) finishRule(r *LoopRule, indexes []ir.Index) {
	bound := map[string]bool{}
	for _, ix := range indexes {
		bound[ix.Var] = true
	}
	free := map[string]bool{}
	note := func(e ir.AffExpr) {
		for _, v := range e.Vars() {
			if !bound[v] {
				free[v] = true
			}
		}
	}
	for _, ix := range indexes {
		note(ix.Lo)
		note(ix.Hi)
	}
	collect := func(rr *RefRule) {
		innerBound := map[string]bool{}
		for _, s := range rr.Ref.Subs {
			for _, v := range s.Vars() {
				if !bound[v] && !innerBound[v] {
					free[v] = true
				}
			}
		}
	}
	for _, rr := range r.Reads {
		collect(rr)
	}
	for _, rr := range r.Writes {
		collect(rr)
	}
	// Params are constants: they never vary between instantiations, so
	// exclude them from the memoization key. Inner-reduction variables
	// are bound within expressions, not free.
	for v := range a.Prog.Params {
		delete(free, v)
	}
	for v := range r.inner {
		delete(free, v)
	}
	r.UsedSym = nil
	for v := range free {
		r.UsedSym = append(r.UsedSym, v)
	}
	sort.Strings(r.UsedSym)
}

// same reports whether two reference rules have one communication
// pattern, for deduplication and PRE: array, kind, sweep variable, rest
// expression, write flag and row subscripts.
func (rr *RefRule) same(o *RefRule) bool {
	if rr.Ref.Array.Name != o.Ref.Array.Name || rr.Kind != o.Kind || rr.SweepVar != o.SweepVar ||
		!rr.Rest.Equal(o.Rest) || rr.IsWrite != o.IsWrite {
		return false
	}
	for d := 0; d < len(rr.Ref.Subs)-1; d++ {
		if !rr.Ref.Subs[d].Equal(o.Ref.Subs[d]) {
			return false
		}
	}
	return true
}
