package runtime

import (
	"fmt"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/protocol"
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
			plans := res.plans.Instances()
			if len(plans) == 0 {
				t.Fatalf("%s %v: no loop instance planned", a.Name, opt)
			}
			o := &activeOracle{opt: opt, delivered: map[string]bool{}}
			for k, in := range plans {
				pl, s := in.Plan, in.Plan.Sched
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

// noBarrier is the live sink of an executor driven without a simulation
// behind it: a barrier needs the other nodes' processes.
type noBarrier struct{ compiler.Calls }

func (noBarrier) Barrier() {}

// commWalkFixture builds a cluster of executors for cg on a vector of
// two elements per node, so that no transfer has a block-aligned
// interior and nothing reaches the protocol or the network — the shape
// of cg on 256 nodes, where what is left of the sequence is the view
// lookup, the shared plan, the reader's stale-frame scan over its own
// edge blocks, and the emitter's walk into the live sink (less its
// barriers). pass takes every node through the communication of each
// communicating loop once, like one more trip of cg's outer loop; loops
// is their number and own the transfers of one node in them.
func commWalkFixture(tb testing.TB, nodes int) (pass func(), loops, own int) {
	a, err := apps.ByName("cg")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := a.Program(map[string]int{"N": 2 * nodes, "MAXIT": 1})
	if err != nil {
		tb.Fatal(err)
	}
	mc := config.Default().WithNodes(nodes)
	sp, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, nodes, layouts, mc.BlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	cluster := tempest.NewCluster(sim.NewEnv(), sp)
	proto := protocol.Attach(cluster)

	// The communicating loops, in program order.
	type inst struct {
		key    ir.Stmt
		sched  *compiler.Schedule
		reduce bool
	}
	var seq []inst
	ir.WalkStmts(prog.Body, func(s ir.Stmt) {
		in := inst{key: s}
		switch st := s.(type) {
		case *ir.ParLoop:
			in.sched = an.Schedule(st, an.LoopRuleOf(st), prog.Params)
		case *ir.Reduce:
			in.sched, in.reduce = an.Schedule(st, an.ReduceRuleOf(st), prog.Params), true
		default:
			return
		}
		if len(in.sched.Reads)+len(in.sched.Writes) == 0 {
			return
		}
		for i := range in.sched.Reads {
			if in.sched.Reads[i].NumBlocks > 0 {
				tb.Fatalf("%v has a block-aligned interior: the fixture would need a network", in.sched.Reads[i])
			}
		}
		seq = append(seq, in)
		v := in.sched.SectionView(nodes / 2)
		own += len(v.ReadSend()) + len(v.ReadRecv()) + len(v.WriteSend()) + len(v.WriteRecv())
	})
	if len(seq) == 0 {
		tb.Fatal("cg has no communicating loop")
	}

	plans := compiler.NewPlanner(compiler.OptRTElim)
	execs := make([]*exec, nodes)
	for n := range execs {
		execs[n] = newExec(prog, an, layouts, nil, cluster, cluster.Nodes[n], proto.Node(n), compiler.OptRTElim)
		execs[n].plans = plans
		execs[n].live = noBarrier{execs[n].live}
	}
	pass = func() {
		for _, e := range execs {
			for _, in := range seq {
				e.preLoopComm(nil, in.key, in.sched)
				e.postLoopComm(in.reduce)
			}
		}
	}
	pass() // builds the schedules' indexes
	return pass, len(seq), own
}

// TestCommWalkAllocatesNothing: 256 executors go through the sequence at
// every loop, so in steady state an executor's walk — plan lookup, view,
// hygiene scan, emitter, sink — must not allocate. (The emitter with
// blocks to move is held to the same in internal/compiler.)
func TestCommWalkAllocatesNothing(t *testing.T) {
	pass, _, _ := commWalkFixture(t, 8)
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Fatalf("a steady-state pass over every node's pre- and post-loop communication allocates %v times, want 0", n)
	}
}

// BenchmarkPreLoopComm is the host cost of the executor's per-loop
// bookkeeping alone, on commWalkFixture. cg's matvec gathers the whole
// vector, so a node's own transfers grow with the cluster (2(N-1) of
// N(N-1)); ns/own-transfer is the figure that must stay flat in N.
func BenchmarkPreLoopComm(b *testing.B) {
	for _, nodes := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			pass, loops, own := commWalkFixture(b, nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			perNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N*nodes)
			b.ReportMetric(perNode/float64(loops), "ns/node-instance")
			b.ReportMetric(perNode/float64(own), "ns/own-transfer")
			b.ReportMetric(0, "ns/op")
		})
	}
}
