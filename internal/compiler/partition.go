package compiler

import (
	"fmt"
	"strings"

	"hpfdsm/internal/ir"
)

// Partition is the owner-computes work assignment of one loop for one
// symbol valuation: per processor, the inclusive ranges of the
// distributed loop variable it executes. When the loop has no
// distributed variable (the anchor's last subscript is fixed), a single
// processor executes the whole nest. A loop whose bounds drive the
// anchor's distributed subscript outside the array has no partition:
// Err says so, and no processor has a range.
type Partition struct {
	DistVar string
	Ranges  [][][2]int // per processor
	Single  bool
	Exec    int // executing processor when Single
	Err     error
}

// Executes reports whether processor p runs any iterations.
func (pt *Partition) Executes(p int) bool {
	if pt.Single {
		return p == pt.Exec
	}
	return len(pt.Ranges[p]) > 0
}

// envKey builds the memoization key from the used symbols' valuation.
func envKey(loop any, kind uint8, used []string, env map[string]int) schedKey {
	k := schedKey{loop: loop, kind: kind, n: uint8(len(used))}
	if len(used) <= len(k.vals) {
		for i, v := range used {
			val, ok := env[v]
			if !ok {
				panic(fmt.Sprintf("compiler: symbol %q unbound at schedule instantiation", v))
			}
			k.vals[i] = val
		}
		return k
	}
	var b strings.Builder
	for _, v := range used {
		val, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("compiler: symbol %q unbound at schedule instantiation", v))
		}
		fmt.Fprintf(&b, "%s=%d;", v, val)
	}
	k.sig = b.String()
	return k
}

// Partition computes (and memoizes) the work partition for a loop rule
// under the given symbol environment. key identifies the loop (the
// *ir.ParLoop or *ir.Reduce pointer).
func (a *Analysis) Partition(key any, rule *LoopRule, env map[string]int) *Partition {
	ck := envKey(key, 0, rule.UsedSym, env)
	a.mu.RLock()
	pt, ok := a.partCache[ck]
	a.mu.RUnlock()
	if ok {
		return pt
	}
	pt = a.buildPartition(rule, env)
	a.mu.Lock()
	if pt2, ok := a.partCache[ck]; ok {
		pt = pt2
	} else {
		a.partCache[ck] = pt
	}
	a.mu.Unlock()
	return pt
}

func (a *Analysis) buildPartition(rule *LoopRule, env map[string]int) *Partition {
	anchor := rule.Anchor
	d := a.dists[anchor.Array]
	last := anchor.Subs[len(anchor.Subs)-1]

	if rule.DistVar == "" {
		t := last.Eval(env)
		clampIndex(&t, d.Extent)
		return &Partition{Single: true, Exec: d.Owner(t)}
	}

	// Range of the distributed variable.
	var ix *ir.Index
	for i := range rule.Indexes {
		if rule.Indexes[i].Var == rule.DistVar {
			ix = &rule.Indexes[i]
		}
	}
	if ix == nil {
		panic("compiler: distributed variable not among loop indexes")
	}
	lo, hi := ix.Lo.Eval(env), ix.Hi.Eval(env)
	// Constant part of the anchor subscript: t = j + c.
	c := last.Sub(ir.V(rule.DistVar)).Eval(env)

	pt := &Partition{DistVar: rule.DistVar, Ranges: make([][][2]int, a.NP)}
	if lo > hi {
		return pt // empty loop
	}
	tlo, thi := lo+c, hi+c
	if tlo < 1 || thi > d.Extent {
		pt.Err = fmt.Errorf("loop over %s drives %s's distributed subscript out of range: %d..%d not in 1..%d",
			rule.DistVar, anchor.Array.Name, tlo, thi, d.Extent)
		return pt
	}
	for p := 0; p < a.NP; p++ {
		for _, r := range d.OwnedRanges(p) {
			l, h := r[0], r[1]
			if l < tlo {
				l = tlo
			}
			if h > thi {
				h = thi
			}
			if l <= h {
				pt.Ranges[p] = append(pt.Ranges[p], [2]int{l - c, h - c})
			}
		}
	}
	return pt
}

func clampIndex(t *int, extent int) {
	if *t < 1 {
		*t = 1
	}
	if *t > extent {
		*t = extent
	}
}
