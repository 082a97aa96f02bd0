package runtime

import (
	"fmt"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/tempest"
	"hpfdsm/internal/trace"
)

// exec is one node's executor: it walks the program, runs its share of
// every parallel loop, and brackets loops with the compiler-directed
// communication sequence appropriate to the optimization level.
// Every node executes the same control flow (scalars and schedules are
// replicated), diverging only in loop partitions and transfer roles.
type exec struct {
	prog    *ir.Program
	an      *compiler.Analysis
	layouts map[*ir.Array]sections.Layout
	cluster *tempest.Cluster
	n       *tempest.Node
	x       *protocol.Ext
	opt     compiler.Level
	edgePf  bool
	inspect bool

	env     map[string]int
	scalars map[string]float64
	exit    bool     // ExitIf tripped in the innermost sequential loop
	mp      *mpState // non-nil in the message-passing backend

	prof *trace.Profile // shared per-loop profile, nil unless enabled

	// prov records instantiated schedules for block-provenance in audit
	// diagnostics (shared across execs; recording is idempotent).
	prov *analysis.ProvIndex

	// plans hands out each loop instance's cluster-wide plan (PRE skips,
	// global live counts, the repeat flag), shared by the attempt's
	// executors; inst numbers the instances this executor has been
	// through, and plan is the current one's (nil between loops and
	// below OptBase).
	plans *compiler.Planner
	inst  int
	plan  *compiler.Plan

	// em walks the Section 4.2 sequence into live — the protocol — or,
	// while replaying after a crash, into a ghostCalls around it; p is
	// the node's compute process, which the sinks' calls run on.
	em   compiler.Emitter
	live compiler.Calls
	p    *sim.Proc

	// loops is the program's compiled form (see fastloop.go), built once
	// per attempt and shared read-only by every node's executor; m is the
	// machine this executor runs it on.
	loops map[ir.Stmt]*fastLoop
	m     fmach
	// cur is the statement being executed, for fault diagnostics.
	cur ir.Stmt

	ghostState
}

// liveCalls is the executor's sink of the Section 4.2 sequence: every
// call goes to the node's protocol extensions.
type liveCalls struct{ *exec }

func (l liveCalls) MkWritable(b []protocol.BlockRun) { l.x.MkWritable(l.p, b) }
func (l liveCalls) ImplicitWritable(b []protocol.BlockRun) {
	l.x.ImplicitWritable(l.p, b, l.opt >= compiler.OptRTElim)
}
func (l liveCalls) Expect(n int)                             { l.x.ExpectBlocks(n) }
func (l liveCalls) ReadyToRecv()                             { l.x.ReadyToRecv(l.p) }
func (l liveCalls) ImplicitInvalidate(b []protocol.BlockRun) { l.x.ImplicitInvalidate(l.p, b) }
func (l liveCalls) Barrier()                                 { l.cluster.Barrier(l.p, l.n) }
func (l liveCalls) Drain()                                   { l.x.DrainAggregated(l.p) }

func (l liveCalls) Send(t *compiler.Transfer) {
	l.x.SendBlocks(l.p, t.Receiver, t.Blocks, l.mode(t, false))
}

func (l liveCalls) Flush(t *compiler.Transfer) {
	l.x.FlushBlocks(l.p, t.Receiver, t.Blocks, l.mode(t, true))
}

// mode is a transfer's transport, from the current schedule's
// expected-byte matrices and the machine's aggregation threshold.
func (l liveCalls) mode(t *compiler.Transfer, write bool) protocol.SendMode {
	mc := l.n.MC
	return l.plan.Sched.Mode(l.opt, t.Sender, t.Receiver, write, mc.BlockSize, mc.EffectiveAggThreshold())
}

// teeCalls, when a test sets it, wraps each node's live sink.
var teeCalls func(node int, live compiler.Calls) compiler.Calls

func newExec(prog *ir.Program, an *compiler.Analysis, layouts map[*ir.Array]sections.Layout, loops map[ir.Stmt]*fastLoop,
	cluster *tempest.Cluster, n *tempest.Node, x *protocol.Ext, opt compiler.Level) *exec {
	e := &exec{
		prog: prog, an: an, layouts: layouts, loops: loops, cluster: cluster, n: n, x: x, opt: opt,
		env:     map[string]int{},
		scalars: map[string]float64{},
	}
	e.live = liveCalls{e}
	if teeCalls != nil {
		e.live = teeCalls(n.ID, e.live)
	}
	// Map-to-map copy with distinct keys: the destination is identical
	// under any visit order.
	//simlint:commutative
	for k, v := range prog.Params {
		e.env[k] = v
	}
	for _, s := range prog.Scalars {
		e.scalars[s] = 0
	}
	return e
}

func (e *exec) run(p *sim.Proc) {
	// A fault is an error in the simulated program: stop the run with a
	// diagnostic. Anything else (a simulator bug, the kernel's unwind
	// sentinel) keeps propagating.
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*fault)
			if !ok {
				panic(r)
			}
			f.node, f.stmt = e.n.ID, e.loops[e.cur].name
			p.Env().Abort(f)
		}
	}()
	e.n.SetProc(p)
	e.p = p
	e.stmts(p, e.prog.Body)
	// Final synchronization so timing includes all nodes' completion.
	e.barrier(p)
}

func (e *exec) stmts(p *sim.Proc, body []ir.Stmt) {
	for _, s := range body {
		if e.exit {
			return
		}
		e.cur = s
		switch st := s.(type) {
		case *ir.ParLoop:
			e.profiled(p, st.Label, func() { e.parLoop(p, st) })
		case *ir.SeqLoop:
			e.seqLoop(p, st)
		case *ir.Reduce:
			e.profiled(p, st.Label, func() { e.reduce(p, st) })
		case *ir.ScalarAssign:
			e.scalars[st.Name] = e.evalScalar(st)
		case *ir.ExitIf:
			e.exit = e.evalScalar(st) != 0
		case *ir.StartTimer:
			e.startTimer(p)
		case *ir.Block:
			e.stmts(p, st.Body)
		default:
			panic(fmt.Sprintf("runtime: unknown statement %T", s))
		}
	}
}

// startTimer opens the measured region: synchronize, zero this node's
// counters, and record the region start (node 0's clock).
func (e *exec) startTimer(p *sim.Proc) {
	e.barrier(p)
	if e.ghost {
		// Still fast-forwarding: the restored counters already reflect
		// the measured region up to the checkpoint — don't wipe them.
		return
	}
	*e.n.St = stats.Node{}
	if e.n.ID == 0 {
		e.cluster.TimerStart = p.Now()
	}
}

// profiled runs body, attributing this node's stat deltas to label and
// recording the span on the timeline and, when tracing, as a region on
// the node's compute lane (which also attributes the loop's misses in
// the heat map's provenance table).
func (e *exec) profiled(p *sim.Proc, label string, body func()) {
	tr := e.n.Trace
	if e.ghost {
		// Ghost loops cost nothing and attribute nothing; a loop the
		// walk goes live inside is likewise unattributed (its pre-flip
		// portion never re-ran).
		body()
		return
	}
	if e.prof == nil && tr == nil {
		body()
		return
	}
	e.n.Sync(p)
	before := *e.n.St
	start := p.Now()
	if tr != nil {
		tr.BeginRegion(e.n.ID, label, start)
	}
	body()
	e.n.Sync(p)
	if tr != nil {
		tr.EndRegion(e.n.ID, p.Now())
	}
	if e.prof == nil {
		return
	}
	e.prof.Timeline.Add(e.n.ID, label, start, p.Now())
	after := *e.n.St
	e.prof.Add(label, trace.Sample{
		Compute: after.ComputeTime - before.ComputeTime,
		Comm:    after.CommTime - before.CommTime,
		Barrier: after.BarrierTime - before.BarrierTime,
		Misses:  after.Misses() - before.Misses(),
		Msgs:    after.MsgsSent - before.MsgsSent,
	})
}

// evalScalar evaluates a replicated-scalar statement's expression (no
// arrays, no loop variables): every node computes the same value.
func (e *exec) evalScalar(s ir.Stmt) float64 {
	fl := e.loops[s]
	e.m.bind(fl)
	e.m.exec(fl, fl.code, 1, 1, 0, 0, false)
	return e.m.f[fl.res]
}

func cmp(op ir.CmpOp, l, r float64) bool {
	switch op {
	case ir.Lt:
		return l < r
	case ir.Le:
		return l <= r
	case ir.Gt:
		return l > r
	case ir.Ge:
		return l >= r
	default:
		panic("runtime: bad comparison")
	}
}

func (e *exec) seqLoop(p *sim.Proc, sl *ir.SeqLoop) {
	lo, hi := sl.Lo.Eval(e.env), sl.Hi.Eval(e.env)
	saved, had := e.env[sl.Var]
	for v := lo; v <= hi && !e.exit; v++ {
		e.env[sl.Var] = v
		e.stmts(p, sl.Body)
	}
	e.exit = false // ExitIf breaks the innermost sequential loop only
	if had {
		e.env[sl.Var] = saved
	} else {
		delete(e.env, sl.Var)
	}
}

// --- Parallel loop ----------------------------------------------------

func (e *exec) parLoop(p *sim.Proc, pl *ir.ParLoop) {
	rule := e.an.LoopRuleOf(pl)
	pt := e.partition(pl, rule)

	if e.mp != nil {
		sched := e.an.Schedule(pl, rule, e.env)
		e.mpPreLoop(p, sched)
		e.runIterations(pl, pt)
		e.mpPostLoop(p, sched)
		return
	}

	if e.opt >= compiler.OptBase {
		sched := e.an.Schedule(pl, rule, e.env)
		e.prov.RecordSchedule(pl.Label, sched)
		e.invalidateIndirectFrames(p, rule)
		e.preLoopComm(p, pl, sched)
	}
	if !e.ghost {
		if e.inspect && len(rule.IndirectArrays) > 0 {
			e.inspectIndirect(p, pl, pt)
		}
		e.runIterations(pl, pt)
	}
	e.postLoopComm(false)
}

// partition is the loop instance's work assignment; one the loop's
// bounds make impossible is a fault.
func (e *exec) partition(key any, rule *compiler.LoopRule) *compiler.Partition {
	pt := e.an.Partition(key, rule, e.env)
	if pt.Err != nil {
		panic(faultf("%v", pt.Err))
	}
	return pt
}

// inspectIndirect is the inspector phase for an irregular loop: it
// walks this node's iterations evaluating only the indirect
// subscripts, collects the target coherence blocks it does not hold,
// and issues advisory prefetches so the executor phase finds them
// resident. Charged as (cheap) inspector computation per iteration.
func (e *exec) inspectIndirect(p *sim.Proc, pl *ir.ParLoop, pt *compiler.Partition) {
	fl := e.loops[pl].insp
	e.m.want = e.m.want[:0]
	e.m.run(fl, pt, e.n.MC.LoopOver) // inspector cost per iteration
	if len(e.m.want) > 0 {
		e.x.Prefetch(p, sections.Normalize(e.m.want))
	}
}

// invalidateIndirectFrames destroys this node's stale compiler-
// controlled frames over arrays the loop reads through irregular
// subscripts: those reads go through the default protocol and must not
// hit a stale readwrite frame left by run-time elimination.
func (e *exec) invalidateIndirectFrames(p *sim.Proc, rule *compiler.LoopRule) {
	if e.opt < compiler.OptRTElim || len(rule.IndirectArrays) == 0 || e.ghost {
		return
	}
	var stale []protocol.BlockRun
	for _, arr := range rule.IndirectArrays {
		stale = e.staleFrames(stale, e.layouts[arr].Blocks(e.n.MC.BlockSize))
	}
	if len(stale) > 0 {
		e.x.ImplicitInvalidate(p, stale)
	}
}

// staleFrames appends the blocks of br on which this node holds a frame
// left behind by run-time elimination: compiler-controlled, readwrite,
// with no unflushed word.
func (e *exec) staleFrames(stale []protocol.BlockRun, br protocol.BlockRun) []protocol.BlockRun {
	for b := br.Start; b < br.Start+br.N; b++ {
		if e.x.IsFrame(b) && e.n.Mem.Tag(b) == memory.ReadWrite && e.n.Mem.Dirty(b) == 0 {
			stale = sections.AppendBlock(stale, b)
		}
	}
	return stale
}

// preLoopComm makes the loop instance's plan current, does the hygiene
// that depends on run-time state and is no part of the contract, and
// walks the Figure 2 sequence up to the loop body. The node's own share
// of the schedule is its view; what the whole cluster must agree on —
// which reads PRE skips, whether any live transfer is left, whether the
// schedule repeats — comes from the instance's shared plan.
func (e *exec) preLoopComm(p *sim.Proc, key any, sched *compiler.Schedule) {
	e.plan = e.plans.At(e.inst, key, sched)
	e.inst++
	// Skipped while ghosting: memory tags are the restored future state,
	// and the hygiene's effect is already in it.
	if !e.ghost {
		if e.opt >= compiler.OptRTElim {
			e.invalidateStaleEdges(p, sched)
		}
		if e.edgePf {
			e.prefetchEdges(p, e.plan)
		}
	}
	e.em.Pre(e.plan, e.n.ID, e.opt, e.calls())
}

// postLoopComm walks the rest of the sequence, restoring consistency
// after the loop body (below OptBase: the closing barrier alone).
func (e *exec) postLoopComm(reduce bool) {
	e.em.Post(e.plan, e.n.ID, e.opt, reduce, e.calls())
	e.plan = nil
}

// invalidateStaleEdges: under run-time elimination, frames persist with
// stale contents between transfers. Before this loop reads any block
// through the default protocol (a transfer's edge), the reader destroys
// its own stale frames covering that block — otherwise the readwrite
// tag would satisfy the edge read silently. This is the "extra work
// required for dealing with overlapping ranges" the paper mentions and
// omits.
func (e *exec) invalidateStaleEdges(p *sim.Proc, sched *compiler.Schedule) {
	var stale []protocol.BlockRun
	for _, i := range sched.View(e.n.ID).ReadEdges {
		for _, br := range sched.Reads[i].EdgeBlocks {
			stale = e.staleFrames(stale, br)
		}
	}
	if len(stale) > 0 {
		e.x.ImplicitInvalidate(p, stale)
	}
}

// prefetchEdges issues advisory prefetches for the edge blocks this node
// will demand-read through the default protocol during the loop, ahead
// of the sequence so responses overlap the whole setup-and-transfer
// phase. Blocks under compiler control in this loop — on any node, hence
// the one walk beyond the node's own view — are excluded: prefetching
// them would downgrade their senders.
func (e *exec) prefetchEdges(p *sim.Proc, plan *compiler.Plan) {
	sched := plan.Sched
	var cc []protocol.BlockRun
	for _, i := range plan.LiveReadIndexes() {
		if !plan.Skips(i) {
			cc = sections.Union(cc, sched.Reads[i].Blocks)
		}
	}
	// Transfer by transfer: an edge block two transfers share is asked
	// for twice.
	var edges []protocol.BlockRun
	for _, i := range sched.View(e.n.ID).ReadRecv {
		if !plan.Skips(i) {
			edges = append(edges, sections.Minus(sched.Reads[i].EdgeBlocks, cc)...)
		}
	}
	if len(edges) > 0 {
		e.x.Prefetch(p, edges)
	}
}

// --- Iteration execution ----------------------------------------------

func (e *exec) runIterations(pl *ir.ParLoop, pt *compiler.Partition) {
	// Per-element cost, with inner-reduction trip counts resolved
	// against the current symbol environment.
	flops := 0
	for _, as := range pl.Body {
		flops += 1 + e.dynOps(as.RHS)
	}
	elemCost := e.n.MC.LoopOver + sim.Time(flops)*e.n.MC.NsPerFlop

	e.m.run(e.loops[pl], pt, elemCost)
}

// dynOps is ir.Expr.Ops with inner-reduction trip counts evaluated
// against the live environment where possible.
func (e *exec) dynOps(x ir.Expr) int {
	switch t := x.(type) {
	case ir.Bin:
		return 1 + e.dynOps(t.L) + e.dynOps(t.R)
	case ir.Call:
		n := 8
		for _, a := range t.Args {
			n += e.dynOps(a)
		}
		return n
	case ir.InnerRed:
		trip := 16
		lo, okL := t.Lo.TryEval(e.env)
		hi, okH := t.Hi.TryEval(e.env)
		if okL && okH {
			trip = hi - lo + 1
			if trip < 0 {
				trip = 0
			}
		}
		return trip * (1 + e.dynOps(t.Body))
	default:
		return x.Ops()
	}
}

func (e *exec) reduce(p *sim.Proc, rd *ir.Reduce) {
	rule := e.an.ReduceRuleOf(rd)
	pt := e.partition(rd, rule)

	if e.mp != nil {
		e.mpPreLoop(p, e.an.Schedule(rd, rule, e.env))
	} else if e.opt >= compiler.OptBase {
		sched := e.an.Schedule(rd, rule, e.env)
		e.prov.RecordSchedule(rd.Label, sched)
		e.preLoopComm(p, rd, sched)
	}

	flops := 1 + e.dynOps(rd.Expr)
	elemCost := e.n.MC.LoopOver + sim.Time(flops)*e.n.MC.NsPerFlop

	if e.ghost {
		// Replay the committed result; the generation is also an epoch.
		e.scalars[rd.Target] = e.ghostReduce()
	} else {
		fl := e.loops[rd]
		e.m.run(fl, pt, elemCost)
		e.scalars[rd.Target] = e.cluster.AllReduce(p, e.n, allReduceOp(rd.Op), e.m.f[fl.res])
	}

	if e.mp == nil {
		e.postLoopComm(true)
	}
}

// allReduceOp maps an IR reduction operator to the cluster's.
func allReduceOp(op ir.RedOp) tempest.ReduceOp {
	switch op {
	case ir.RedSum:
		return tempest.OpSum
	case ir.RedMax:
		return tempest.OpMax
	case ir.RedMin:
		return tempest.OpMin
	default:
		panic("runtime: bad reduction op")
	}
}

func redCombine(op ir.RedOp, a, b float64) float64 {
	switch op {
	case ir.RedSum:
		return a + b
	case ir.RedMax:
		if b > a {
			return b
		}
		return a
	case ir.RedMin:
		if b < a {
			return b
		}
		return a
	default:
		panic("runtime: bad reduction op")
	}
}
