package runtime

import (
	"slices"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/protocol"
)

// callTee is a tee around one node's live sink: it forwards every call
// and keeps it, filed under the loop instance the executor is in.
type callTee struct {
	compiler.Calls
	e   *exec
	log map[int][]analysis.Call // instance -> the node's executed calls
}

func (c *callTee) add(call analysis.Call) {
	call.Node = c.e.n.ID
	call.Blocks = slices.Clone(call.Blocks)
	c.log[c.e.inst-1] = append(c.log[c.e.inst-1], call)
}

func (c *callTee) MkWritable(b []protocol.BlockRun) {
	c.add(analysis.Call{Op: analysis.OpMkWritable, Blocks: b})
	c.Calls.MkWritable(b)
}

func (c *callTee) ImplicitWritable(b []protocol.BlockRun) {
	c.add(analysis.Call{Op: analysis.OpImplicitWritable, Blocks: b})
	c.Calls.ImplicitWritable(b)
}

func (c *callTee) ImplicitInvalidate(b []protocol.BlockRun) {
	c.add(analysis.Call{Op: analysis.OpImplicitInvalidate, Blocks: b})
	c.Calls.ImplicitInvalidate(b)
}

func (c *callTee) Expect(n int) {
	c.add(analysis.Call{Op: analysis.OpExpect, N: n})
	c.Calls.Expect(n)
}

func (c *callTee) Send(t *compiler.Transfer) {
	c.add(analysis.Call{Op: analysis.OpSend, Dst: t.Receiver, Blocks: t.Blocks})
	c.Calls.Send(t)
}

func (c *callTee) Flush(t *compiler.Transfer) {
	c.add(analysis.Call{Op: analysis.OpFlush, Dst: t.Receiver, Blocks: t.Blocks})
	c.Calls.Flush(t)
}

func (c *callTee) ReadyToRecv() {
	c.add(analysis.Call{Op: analysis.OpReadyToRecv})
	c.Calls.ReadyToRecv()
}

func (c *callTee) Barrier() {
	c.add(analysis.Call{Op: analysis.OpBarrier})
	c.Calls.Barrier()
}

// TestExecutedCallsMatchVerifier runs the six applications with a tee
// around every node's live sink and takes a verifier model through the
// loop instances the run went through: at each, every node must have
// executed exactly the calls the verifier recorded for it (less the body
// marker and a reduction's combine, which the executor does not make
// through the sink). Both walk the same emitter, so what this pins is
// that they feed it the same things — plan, level, repeat flag — and
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
			var tees []*callTee
			teeCalls = func(node int, live compiler.Calls) compiler.Calls {
				tee := &callTee{Calls: live, e: live.(liveCalls).exec, log: map[int][]analysis.Call{}}
				tees = append(tees, tee)
				return tee
			}
			res, err := Run(prog, Options{Machine: config.Default(), Opt: opt})
			if err != nil {
				t.Fatalf("%s %v: %v", a.Name, opt, err)
			}
			m := analysis.NewModel(res.Analysis(), opt, analysis.NewReport(prog.Name))
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
				lc := m.RecordLoopCalls(in.Key, analysis.Site{}, in.Plan.Sched, reduce)
				skips += len(lc.Skipped)
				if opt >= compiler.OptRTElim && in.Plan.Repeat && in.Plan.LiveReads > 0 {
					elidedBarriers++
				}
				for n, tee := range tees {
					var want []analysis.Call
					for i, c := range lc.Nodes[n] {
						body := c.Op == analysis.OpBody
						combine := reduce && i > 0 && lc.Nodes[n][i-1].Op == analysis.OpBody
						if !body && !combine {
							want = append(want, c)
						}
						if c.Op == analysis.OpSend {
							sends++
						}
					}
					if !slices.EqualFunc(tee.log[k], want, func(x, y analysis.Call) bool {
						return x.Op == y.Op && x.Node == y.Node && x.Dst == y.Dst && x.N == y.N && slices.Equal(x.Blocks, y.Blocks)
					}) {
						t.Fatalf("%s %v, instance %d (%s), node %d:\nexecuted %v\nverifier %v",
							a.Name, opt, k, label, n, opNames(tee.log[k]), opNames(want))
					}
				}
			}
		}
	}
	if sends == 0 || skips == 0 || elidedBarriers == 0 {
		t.Fatalf("the comparison saw %d sends, %d PRE skips and %d repeat instances with reads: it never covered all three", sends, skips, elidedBarriers)
	}
}

// opNames renders a call list without its block operands.
func opNames(calls []analysis.Call) []string {
	var out []string
	for _, c := range calls {
		c.Blocks = nil
		out = append(out, c.String())
	}
	return out
}
