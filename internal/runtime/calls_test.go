package runtime

import (
	"fmt"
	"slices"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/protocol"
)

// call is one Section 4.2 call as a tee saw it.
type call struct {
	op     string
	dst, n int
	blocks []protocol.BlockRun
}

func (c call) String() string { return fmt.Sprintf("%s(dst %d, n %d)", c.op, c.dst, c.n) }

// callTee is a tee around a sink: it forwards every call and hands it to
// add first.
type callTee struct {
	compiler.Calls
	add func(call)
}

func (c callTee) MkWritable(b []protocol.BlockRun) {
	c.add(call{op: "mk_writable", blocks: slices.Clone(b)})
	c.Calls.MkWritable(b)
}

func (c callTee) ImplicitWritable(b []protocol.BlockRun) {
	c.add(call{op: "implicit_writable", blocks: slices.Clone(b)})
	c.Calls.ImplicitWritable(b)
}

func (c callTee) ImplicitInvalidate(b []protocol.BlockRun) {
	c.add(call{op: "implicit_invalidate", blocks: slices.Clone(b)})
	c.Calls.ImplicitInvalidate(b)
}

func (c callTee) Expect(n int) {
	c.add(call{op: "expect", n: n})
	c.Calls.Expect(n)
}

func (c callTee) Send(t *compiler.Transfer) {
	c.add(call{op: "send", dst: t.Receiver, blocks: t.Blocks})
	c.Calls.Send(t)
}

func (c callTee) Flush(t *compiler.Transfer) {
	c.add(call{op: "flush", dst: t.Receiver, blocks: t.Blocks})
	c.Calls.Flush(t)
}

func (c callTee) ReadyToRecv() {
	c.add(call{op: "ready_to_recv"})
	c.Calls.ReadyToRecv()
}

func (c callTee) Barrier() {
	c.add(call{op: "barrier"})
	c.Calls.Barrier()
}

func sameCall(x, y call) bool {
	return x.op == y.op && x.dst == y.dst && x.n == y.n && slices.Equal(x.blocks, y.blocks)
}

// TestExecutedCallsMatchVerifier runs the six applications with a tee
// around every node's live sink and takes a verifier model, with the same
// kind of tee around its fold, through the loop instances the run went
// through: at each, every node must have executed exactly the calls the
// verifier folded for it. Both walk the same emitter, so what this pins
// is that they feed it the same things — plan, level, repeat flag — and
// hence that hpfc -lint and hpfrun -verify check the sequence that runs.
func TestExecutedCallsMatchVerifier(t *testing.T) {
	defer func() { teeCalls = nil }()
	sends, skips, elidedBarriers := 0, 0, 0
	for _, a := range apps.All() {
		for _, opt := range []compiler.Level{compiler.OptBase, compiler.OptBulk, compiler.OptRTElim, compiler.OptPRE} {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			var executed []map[int][]call // per node: instance -> its calls
			teeCalls = func(node int, live compiler.Calls) compiler.Calls {
				e, log := live.(liveCalls).exec, map[int][]call{}
				executed = append(executed, log)
				return callTee{live, func(c call) { log[e.inst-1] = append(log[e.inst-1], c) }}
			}
			res, err := Run(prog, Options{Machine: config.Default(), Opt: opt})
			if err != nil {
				t.Fatalf("%s %v: %v", a.Name, opt, err)
			}
			m := analysis.NewModel(res.Analysis(), opt, analysis.NewReport(prog.Name))
			folded := make([][]call, len(executed)) // per node: the current instance's calls
			m.Tee = func(node int, _ bool, c compiler.Calls) compiler.Calls {
				return callTee{c, func(c call) { folded[node] = append(folded[node], c) }}
			}
			insts := res.plans.Instances()
			if len(insts) == 0 {
				t.Fatalf("%s %v: no loop instance planned", a.Name, opt)
			}
			for k, in := range insts {
				var label string
				var reduce bool
				switch st := in.Key.(type) {
				case *ir.ParLoop:
					label = st.Label
				case *ir.Reduce:
					label, reduce = st.Label, true
				}
				clear(folded)
				lc := m.FoldLoopCalls(in.Key, analysis.Site{}, in.Plan.Sched, reduce)
				skips += len(lc.Skipped)
				if opt >= compiler.OptRTElim && in.Plan.Repeat && in.Plan.LiveReads > 0 {
					elidedBarriers++
				}
				for n, want := range folded {
					for _, c := range want {
						if c.op == "send" {
							sends++
						}
					}
					if got := executed[n][k]; !slices.EqualFunc(got, want, sameCall) {
						t.Fatalf("%s %v, instance %d (%s), node %d:\nexecuted %v\nverifier %v", a.Name, opt, k, label, n, got, want)
					}
				}
			}
		}
	}
	if sends == 0 || skips == 0 || elidedBarriers == 0 {
		t.Fatalf("the comparison saw %d sends, %d PRE skips and %d repeat instances with reads: it never covered all three", sends, skips, elidedBarriers)
	}
}
