package runtime

import (
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// activeOracle is the filter every executor used to run for itself at
// every loop instance, over the whole schedule, with its own copy of
// the delivered set — kept as the reference the shared plan is checked
// against. It returns the indices it keeps.
type activeOracle struct {
	opt       compiler.Level
	delivered map[string]bool
}

func (o *activeOracle) active(ts []compiler.Transfer) []int {
	var out []int
	for i, t := range ts {
		if t.NumBlocks == 0 {
			continue // nothing block-aligned: all edges, default protocol
		}
		if o.opt >= compiler.OptPRE {
			if t.Redundant && o.delivered[t.Key] {
				continue
			}
			o.delivered[t.Key] = true
		}
		out = append(out, i)
	}
	return out
}

// TestSharedPlanMatchesPerNodeFilter runs the six applications and
// replays each run's instance sequence through the old per-node
// filter: at every instance the shared plan must skip exactly the reads
// the filter dropped and report the live counts the filter's result
// lists had (the counts decide barriers, so a difference would desync
// the nodes, not just cost time).
func TestSharedPlanMatchesPerNodeFilter(t *testing.T) {
	skippedAtPRE := 0
	for _, a := range apps.All() {
		for _, opt := range []compiler.Level{compiler.OptRTElim, compiler.OptPRE} {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, Options{Machine: config.Default(), Opt: opt})
			if err != nil {
				t.Fatalf("%s %v: %v", a.Name, opt, err)
			}
			plans := res.plans.Plans()
			if len(plans) == 0 {
				t.Fatalf("%s %v: no loop instance planned", a.Name, opt)
			}
			o := &activeOracle{opt: opt, delivered: map[string]bool{}}
			for k, pl := range plans {
				s := pl.Sched
				reads, writes := o.active(s.Reads), o.active(s.Writes)
				if pl.LiveReads != len(reads) || pl.LiveWrites != len(writes) {
					t.Fatalf("%s %v instance %d: plan has %d live reads and %d live writes, the per-node filter %d and %d",
						a.Name, opt, k, pl.LiveReads, pl.LiveWrites, len(reads), len(writes))
				}
				kept := map[int]bool{}
				for _, i := range reads {
					kept[i] = true
				}
				for i := range s.Reads {
					want := s.Reads[i].NumBlocks > 0 && !kept[i]
					if pl.Skips(int32(i)) != want {
						t.Fatalf("%s %v instance %d: plan skips read %d = %v, the per-node filter %v (%v)",
							a.Name, opt, k, i, !want, want, s.Reads[i])
					}
					if want {
						if opt < compiler.OptPRE {
							t.Fatalf("%s %v instance %d: a read skipped below OptPRE", a.Name, opt, k)
						}
						skippedAtPRE++
					}
				}
			}
		}
	}
	if skippedAtPRE == 0 {
		t.Fatal("no application had a read skipped at OptPRE: the comparison never saw a skip set")
	}
}

// BenchmarkPreLoopComm is the host cost of the executor's per-loop
// bookkeeping alone: every node of the cluster goes through preLoopComm
// for each communicating loop of cg, on a vector of two elements per
// node, so that no transfer has a block-aligned interior and nothing
// reaches the protocol or the network — the shape of cg on 256 nodes,
// where what is left of the sequence is the view lookup, the shared
// plan, and the reader's stale-frame scan over its own edge blocks. cg's
// matvec gathers the whole vector, so a node's own transfers grow with
// the cluster (2(N-1) of N(N-1)); ns/own-transfer is the figure that
// must stay flat in N.
func BenchmarkPreLoopComm(b *testing.B) {
	for _, nodes := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			a, err := apps.ByName("cg")
			if err != nil {
				b.Fatal(err)
			}
			prog, err := a.Program(map[string]int{"N": 2 * nodes, "MAXIT": 1})
			if err != nil {
				b.Fatal(err)
			}
			mc := config.Default().WithNodes(nodes)
			sp := memory.NewSpace(mc)
			layouts := map[*ir.Array]sections.Layout{}
			for _, arr := range prog.Arrays {
				layouts[arr] = sections.Layout{Base: sp.Alloc(arr.Name, arr.Elems()*8), Extents: arr.Extents, ElemSize: 8}
			}
			an, err := compiler.New(prog, nodes, layouts, mc.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			cluster := tempest.NewCluster(sim.NewEnv(), sp)
			proto := protocol.Attach(cluster)

			// The communicating loops, in program order.
			type inst struct {
				key   any
				sched *compiler.Schedule
			}
			var seq []inst
			own := 0
			ir.WalkStmts(prog.Body, func(s ir.Stmt) {
				var sched *compiler.Schedule
				switch st := s.(type) {
				case *ir.ParLoop:
					sched = an.Schedule(st, an.LoopRuleOf(st), prog.Params)
				case *ir.Reduce:
					sched = an.Schedule(st, an.ReduceRuleOf(st), prog.Params)
				default:
					return
				}
				if len(sched.Reads)+len(sched.Writes) == 0 {
					return
				}
				for i := range sched.Reads {
					if sched.Reads[i].NumBlocks > 0 {
						b.Fatalf("%v has a block-aligned interior: the bench would need a network", sched.Reads[i])
					}
				}
				seq = append(seq, inst{s, sched})
				v := sched.SectionView(nodes / 2)
				own += len(v.ReadSend) + len(v.ReadRecv) + len(v.WriteSend) + len(v.WriteRecv)
			})
			if len(seq) == 0 {
				b.Fatal("cg has no communicating loop")
			}

			plans := compiler.NewPlanner(compiler.OptRTElim)
			execs := make([]*exec, nodes)
			for n := range execs {
				execs[n] = newExec(prog, an, layouts, nil, cluster, cluster.Nodes[n], proto.Node(n), compiler.OptRTElim)
				execs[n].plans = plans
			}
			// One pass of the loops per iteration, like one more trip of
			// cg's outer loop; the first builds the schedules' indexes.
			pass := func() {
				for _, e := range execs {
					for _, in := range seq {
						e.preLoopComm(nil, in.key, in.sched)
					}
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			perNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N*nodes)
			b.ReportMetric(perNode/float64(len(seq)), "ns/node-instance")
			b.ReportMetric(perNode/float64(own), "ns/own-transfer")
			b.ReportMetric(0, "ns/op")
		})
	}
}
