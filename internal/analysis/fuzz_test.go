package analysis_test

import (
	"slices"
	"sync"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// ops names the calls of the Section 4.2 sequence as filter does.
var ops = []string{"mk_writable", "implicit_writable", "expect", "send", "ready_to_recv", "flush", "implicit_invalidate", "barrier"}

// fuzzPrograms compiles every application, at scaled size, and the
// contract tests' fixture — whose second loop flushes, which no
// application does — once, on the default 8-node machine.
var fuzzPrograms = sync.OnceValues(func() ([]*compiler.Analysis, error) {
	var progs []*ir.Program
	for _, a := range apps.All() {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
	}
	fixture, err := lang.Parse(fixtureSrc)
	if err != nil {
		return nil, err
	}
	var out []*compiler.Analysis
	for _, prog := range append(progs, fixture) {
		mc := config.Default()
		_, layouts := compiler.Place(prog, mc)
		an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
		if err != nil {
			return nil, err
		}
		out = append(out, an)
	}
	return out, nil
})

// checkedInstances walks an at level with every call as emitted and
// reports, per instance the model folds, whether it checks it: the
// verifier checks each (loop, valuation) once, and a repeat instance only
// advances the frames and the barrier phase.
func checkedInstances(an *compiler.Analysis, level compiler.Level) []bool {
	rep := analysis.NewReport(an.Prog.Name)
	m := analysis.NewModel(an, level, rep)
	var before []int // per instance: the instances checked before it
	m.Tee = func(node int, after bool, c compiler.Calls) compiler.Calls {
		if node == 0 && !after {
			before = append(before, rep.Instances)
		}
		return c
	}
	m.Walk()
	checked := make([]bool, len(before))
	for i := range before {
		next := rep.Instances
		if i+1 < len(before) {
			next = before[i+1]
		}
		checked[i] = next > before[i]
	}
	return checked
}

// FuzzVerifierDrops drops one call on its way to the verifier — the k-th
// call of one kind that one node makes in the instances the verifier
// checks — from a clean program on 8 nodes, at a level that has a
// schedule. The verifier must not panic, and a dropped send, flush,
// expect, ready_to_recv or barrier must cost at least one error: each
// moves a count the contract balances (blocks sent against blocks
// expected, flushed against expected, barriers against node 0's). A
// dropped mk_writable, implicit_writable or implicit_invalidate is only
// required not to panic: the read side's mk_writable is no part of the
// contract, and under run-time elimination a frame an earlier instance
// opened may still cover the blocks.
func FuzzVerifierDrops(f *testing.F) {
	// The pinned mutation fixtures' drops, on the fixture and on every
	// application.
	for _, seed := range []struct {
		op      string
		node, k int
	}{
		{"ready_to_recv", 1, 1}, {"flush", 0, 1}, {"expect", 1, 2}, {"implicit_writable", 1, 1},
		{"barrier", 0, 4}, {"send", 0, 1}, {"mk_writable", 0, 1},
	} {
		for prog := range len(apps.All()) + 1 {
			f.Add(uint8(prog), uint8(compiler.OptBulk-compiler.OptBase), uint8(seed.node), uint8(slices.Index(ops, seed.op)), uint16(seed.k-1))
		}
	}
	f.Fuzz(func(t *testing.T, prog, level, node, op uint8, k uint16) {
		all, err := fuzzPrograms()
		if err != nil {
			t.Fatal(err)
		}
		an := all[int(prog)%len(all)]
		lv := compiler.OptBase + compiler.Level(int(level)%int(compiler.OptPRE-compiler.OptBase+1))
		drop, dropNode, kth := ops[int(op)%len(ops)], int(node)%an.NP, int(k)+1
		checked := checkedInstances(an, lv)

		rep := analysis.NewReport(an.Prog.Name)
		m := analysis.NewModel(an, lv, rep)
		inst, seen, dropped := -1, 0, false
		m.Tee = func(n int, after bool, c compiler.Calls) compiler.Calls {
			if n == 0 && !after {
				inst++
			}
			if n != dropNode || !checked[inst] {
				return c
			}
			return filter{c, func(o string) bool {
				if o != drop {
					return true
				}
				seen++
				dropped = dropped || seen == kth
				return seen != kth
			}}
		}
		m.Walk()
		counted := drop == "send" || drop == "flush" || drop == "expect" || drop == "ready_to_recv" || drop == "barrier"
		if dropped && counted && !rep.HasErrors() {
			t.Fatalf("%s at %v: dropping node %d's %s #%d of the checked instances leaves the report clean:\n%s",
				an.Prog.Name, lv, dropNode, drop, kth, rep)
		}
	})
}
