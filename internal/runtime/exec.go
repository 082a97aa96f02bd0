package runtime

import (
	"fmt"
	"maps"
	"slices"

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
	// global live counts), shared by the attempt's executors; inst
	// numbers the instances this executor has been through.
	plans *compiler.Planner
	inst  int
	// Replicated run-time-elimination state: the schedule last executed
	// for each loop. Barriers and tag work can be skipped only when the
	// instantiated schedule is unchanged — the paper's "same range of
	// blocks" test.
	lastSched map[any]*compiler.Schedule

	// loops is the program's compiled form (see fastloop.go), built once
	// per attempt and shared read-only by every node's executor.
	loops map[ir.Stmt]*fastLoop
	// cur is the statement being executed, for fault diagnostics.
	cur ir.Stmt

	// Role-classification scratch reused across preLoopComm calls, so
	// the per-loop grouping allocates nothing in steady state.
	sendOut, takeOut, recvIn, flushIn []protocol.BlockRun

	// Ghost fast-forward (crash recovery). A restored run replays the
	// program's control flow from the beginning with every side effect
	// suppressed — no protocol calls, no compute cost, no cluster
	// barriers — while counting the synchronization epochs the original
	// run completed. When the local count reaches resumeEpoch (the
	// checkpoint's epoch) the executor flips live, possibly in the
	// middle of a pre/post-loop communication sequence, and continues
	// exactly where the restored protocol state says the machine stands.
	// Replicated executor state (scalars, lastSched) and the attempt's
	// shared plans are reconstructed by the walk itself; reduction
	// results are replayed from the checkpoint's journal instead of
	// being recomputed.
	ghost       bool
	ghostEpoch  int64
	resumeEpoch int64
	journal     []float64 // completed reductions, generation order
	ghostGen    int       // next journal entry to replay
}

// setResume arms ghost fast-forward up to the checkpoint epoch.
func (e *exec) setResume(epoch int64, journal []float64) {
	if epoch <= 0 {
		return // initial-state checkpoint: run live from the start
	}
	e.ghost = true
	e.resumeEpoch = epoch
	e.journal = journal
}

// barrier enters a cluster-wide barrier — or, while ghosting, merely
// counts the epoch the original run completed here.
func (e *exec) barrier(p *sim.Proc) {
	if e.ghost {
		e.ghostTick()
		return
	}
	e.cluster.Barrier(p, e.n)
}

func (e *exec) ghostTick() {
	e.ghostEpoch++
	if e.ghostEpoch >= e.resumeEpoch {
		e.ghost = false
	}
}

// ghostReduce replays a completed reduction from the checkpoint
// journal and counts its epoch.
func (e *exec) ghostReduce() float64 {
	if e.ghostGen >= len(e.journal) {
		panic(fmt.Sprintf("runtime: ghost replay needs reduction %d but the checkpoint journal holds %d", e.ghostGen, len(e.journal)))
	}
	v := e.journal[e.ghostGen]
	e.ghostGen++
	e.ghostTick()
	return v
}

func newExec(prog *ir.Program, an *compiler.Analysis, layouts map[*ir.Array]sections.Layout, loops map[ir.Stmt]*fastLoop,
	cluster *tempest.Cluster, n *tempest.Node, x *protocol.Ext, opt compiler.Level) *exec {
	e := &exec{
		prog: prog, an: an, layouts: layouts, loops: loops, cluster: cluster, n: n, x: x, opt: opt,
		env:       map[string]int{},
		scalars:   map[string]float64{},
		lastSched: map[any]*compiler.Schedule{},
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
			e.scalars[st.Name] = e.evalScalar(p, st)
		case *ir.ExitIf:
			e.exit = e.evalScalar(p, st) != 0
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
func (e *exec) evalScalar(p *sim.Proc, s ir.Stmt) float64 {
	fl := e.loops[s]
	return fl.expr(fl.newMach(e, p))
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
	pt := e.an.Partition(pl, rule, e.env)

	if e.mp != nil {
		sched := e.an.Schedule(pl, rule, e.env)
		e.mpPreLoop(p, sched)
		e.runIterations(p, pl, pt)
		e.mpPostLoop(p, sched)
		return
	}

	var sched *compiler.Schedule
	if e.opt >= compiler.OptBase {
		sched = e.an.Schedule(pl, rule, e.env)
		e.prov.RecordSchedule(pl.Label, sched)
		e.invalidateIndirectFrames(p, rule)
		e.preLoopComm(p, pl, sched)
	}
	if e.inspect && len(rule.IndirectArrays) > 0 && !e.ghost {
		e.inspectIndirect(p, pl, pt)
	}

	if !e.ghost {
		e.runIterations(p, pl, pt)
	}

	if e.opt >= compiler.OptBase {
		e.postLoopComm(p, sched, true)
	} else {
		e.barrier(p)
	}
}

// inspectIndirect is the inspector phase for an irregular loop: it
// walks this node's iterations evaluating only the indirect
// subscripts, collects the target coherence blocks it does not hold,
// and issues advisory prefetches so the executor phase finds them
// resident. Charged as (cheap) inspector computation per iteration.
func (e *exec) inspectIndirect(p *sim.Proc, pl *ir.ParLoop, pt *compiler.Partition) {
	fl := e.loops[pl]
	m := fl.newMach(e, p)
	m.want = map[int]bool{}
	fl.iterate(m, pt, func() {
		e.n.Compute(e.n.MC.LoopOver) // inspector cost per iteration
		for _, insp := range fl.insp {
			insp(m)
		}
	})
	if len(m.want) == 0 {
		return
	}
	// Coalesce into runs, deterministically.
	var runs []protocol.BlockRun
	for _, b := range slices.Sorted(maps.Keys(m.want)) {
		runs = appendBlock(runs, b)
	}
	e.x.Prefetch(p, runs)
}

// appendBlock adds block b to a list of runs built in ascending block
// order: it extends the last run when b follows it directly, and
// starts a new run otherwise.
func appendBlock(runs []protocol.BlockRun, b int) []protocol.BlockRun {
	if k := len(runs) - 1; k >= 0 && runs[k].Start+runs[k].N == b {
		runs[k].N++
		return runs
	}
	return append(runs, protocol.BlockRun{Start: b, N: 1})
}

// invalidateIndirectFrames destroys this node's stale compiler-
// controlled frames over arrays the loop reads through irregular
// subscripts: those reads go through the default protocol and must not
// hit a stale readwrite frame left by run-time elimination.
func (e *exec) invalidateIndirectFrames(p *sim.Proc, rule *compiler.LoopRule) {
	if e.opt < compiler.OptRTElim || len(rule.IndirectArrays) == 0 || e.ghost {
		return
	}
	bs := e.n.MC.BlockSize
	var stale []protocol.BlockRun
	for _, arr := range rule.IndirectArrays {
		lay := e.layouts[arr]
		b0 := lay.Base / bs
		b1 := (lay.Base + arr.Elems()*8 + bs - 1) / bs
		for b := b0; b < b1; b++ {
			if !e.x.IsFrame(b) || e.n.Mem.Tag(b) != memory.ReadWrite || e.n.Mem.Dirty(b) != 0 {
				continue
			}
			stale = appendBlock(stale, b)
		}
	}
	if len(stale) > 0 {
		e.x.ImplicitInvalidate(p, stale)
	}
}

// preLoopComm runs the Figure 2 sequence before the loop body. The node
// walks its own view of the schedule; what the whole cluster must agree
// on — which reads PRE skips, whether any live transfer is left — comes
// from the instance's shared plan.
func (e *exec) preLoopComm(p *sim.Proc, key any, sched *compiler.Schedule) {
	me := e.n.ID
	v := sched.View(me)
	plan := e.plans.At(e.inst, sched)
	e.inst++
	rtElim := e.opt >= compiler.OptRTElim
	sameSched := e.lastSched[key] == sched
	e.lastSched[key] = sched

	// Under run-time elimination, frames persist with stale contents
	// between transfers. Before this loop reads any block through the
	// default protocol (a transfer's edge), the reader destroys its own
	// stale frames covering that block — otherwise the readwrite tag
	// would satisfy the edge read silently. This is the "extra work
	// required for dealing with overlapping ranges" the paper mentions
	// and omits. (Skipped while ghosting: memory tags are the restored
	// future state, and the invalidation's effect is already in it.)
	if rtElim && !e.ghost {
		var stale []protocol.BlockRun
		for _, i := range v.ReadEdges {
			for _, br := range sched.Reads[i].EdgeBlocks {
				for b := br.Start; b < br.Start+br.N; b++ {
					if !e.x.IsFrame(b) || e.n.Mem.Tag(b) != memory.ReadWrite || e.n.Mem.Dirty(b) != 0 {
						continue
					}
					stale = appendBlock(stale, b)
				}
			}
		}
		if len(stale) > 0 {
			e.x.ImplicitInvalidate(p, stale)
		}
	}

	if plan.LiveReads+plan.LiveWrites == 0 {
		// No compiler-controlled communication this loop (possibly all
		// skipped by PRE): nothing to set up.
		return
	}

	// Advisory prefetch of the edge blocks we will demand-read through
	// the default protocol during the loop: issued first, so responses
	// overlap the whole setup-and-transfer phase. Blocks under compiler
	// control in this loop — on any node, hence the one walk beyond the
	// node's own view — are excluded: prefetching them would downgrade
	// their senders.
	if e.edgePf && !e.ghost {
		cc := map[int]bool{}
		for _, i := range plan.LiveReadIndexes() {
			if plan.Skips(i) {
				continue
			}
			for _, br := range sched.Reads[i].Blocks {
				for b := br.Start; b < br.Start+br.N; b++ {
					cc[b] = true
				}
			}
		}
		var edges []protocol.BlockRun
		for _, i := range v.ReadRecv {
			if plan.Skips(i) {
				continue
			}
			for _, br := range sched.Reads[i].EdgeBlocks {
				for b := br.Start; b < br.Start+br.N; b++ {
					if cc[b] {
						continue
					}
					edges = appendBlock(edges, b)
				}
			}
		}
		if len(edges) > 0 {
			e.x.Prefetch(p, edges)
		}
	}

	sendOut, takeOut := e.sendOut[:0], e.takeOut[:0]
	recvIn, flushIn := e.recvIn[:0], e.flushIn[:0]
	recvBlocks := 0
	for _, i := range v.ReadSend {
		if !plan.Skips(i) {
			sendOut = append(sendOut, sched.Reads[i].Blocks...)
		}
	}
	for _, i := range v.ReadRecv {
		if t := &sched.Reads[i]; !plan.Skips(i) {
			recvIn = append(recvIn, t.Blocks...)
			recvBlocks += t.NumBlocks
		}
	}
	// Non-owner writes go through mk_writable: "the owner has to send
	// the block to the writer, just as in the non-owner read case" — the
	// writer takes write ownership through the directory (invalidating
	// the home's copy) and receives the current contents it will
	// partially overwrite.
	for _, i := range v.WriteSend {
		takeOut = append(takeOut, sched.Writes[i].Blocks...)
	}
	// The owner opens frames for the data flushed back after the loop.
	for _, i := range v.WriteRecv {
		flushIn = append(flushIn, sched.Writes[i].Blocks...)
	}
	e.sendOut, e.takeOut, e.recvIn, e.flushIn = sendOut, takeOut, recvIn, flushIn

	// Step 1: senders and non-owner writers take their blocks writable.
	// Read-side mk_writable is skippable under run-time elimination
	// (the owner already holds them from the default protocol's
	// effect); write-side is not — the paper's whole-program
	// assumptions exclude non-owner writes, so where they exist the
	// calls stay. The barrier orders step 1 before step 2 (a reader
	// may be a block's home).
	if !rtElim && len(sendOut) > 0 && !e.ghost {
		e.x.MkWritable(p, sendOut)
	}
	if len(takeOut) > 0 && !e.ghost {
		e.x.MkWritable(p, takeOut)
	}
	if !rtElim || plan.LiveWrites > 0 {
		e.barrier(p)
	}

	// Step 2: receivers open readwrite frames for the incoming data;
	// flush targets likewise for the post-loop writeback. (The walk can
	// go live at the step-1 barrier, in which case the checkpoint holds
	// the pre-step-2 state and everything below runs for real.)
	if len(recvIn) > 0 && !e.ghost {
		e.x.ImplicitWritable(p, recvIn, rtElim)
	}
	if len(flushIn) > 0 && !e.ghost {
		e.x.ImplicitWritable(p, flushIn, rtElim)
	}
	if recvBlocks > 0 && !e.ghost {
		e.x.ExpectBlocks(recvBlocks)
	}

	// Both sides ready before the transfer. Under run-time elimination
	// the frames persist, so a repeat of the identical schedule can
	// skip this barrier; a changed schedule (e.g. lu's per-step pivot
	// column) cannot — receivers must open the new frames first.
	if !rtElim || !sameSched {
		e.barrier(p)
	}

	// The transfer: owners push, readers hold a counting semaphore.
	// Each transfer's transport comes from the schedule's expected-byte
	// matrices and the machine's aggregation threshold; the explicit
	// drain closes the emission phase so aggregated carriers depart
	// even when this node receives nothing (its readers are blocked in
	// ReadyToRecv right now).
	bs, thr := e.n.MC.BlockSize, e.n.MC.EffectiveAggThreshold()
	if !e.ghost {
		sent := false
		for _, i := range v.ReadSend {
			if plan.Skips(i) {
				continue
			}
			t := &sched.Reads[i]
			e.x.SendBlocks(p, t.Receiver, t.Blocks, sched.Mode(e.opt, me, t.Receiver, false, bs, thr))
			sent = true
		}
		if sent {
			e.x.DrainAggregated(p)
		}
		if recvBlocks > 0 {
			e.x.ReadyToRecv(p)
		}
	}
}

// postLoopComm restores consistency after the loop body.
func (e *exec) postLoopComm(p *sim.Proc, sched *compiler.Schedule, closingBarrier bool) {
	me := e.n.ID
	v := sched.View(me)
	rtElim := e.opt >= compiler.OptRTElim

	// Non-owner writes flush back to the owner, who waits for them.
	flushIn := 0
	for _, i := range v.WriteRecv {
		flushIn += sched.Writes[i].NumBlocks
	}
	bs, thr := e.n.MC.BlockSize, e.n.MC.EffectiveAggThreshold()
	if !e.ghost && len(v.WriteSend) > 0 {
		for _, i := range v.WriteSend {
			t := &sched.Writes[i]
			e.x.FlushBlocks(p, t.Receiver, t.Blocks, sched.Mode(e.opt, me, t.Receiver, true, bs, thr))
		}
		// Close the flush epoch: aggregated data and piggybacked
		// directory updates depart before the closing barrier.
		e.x.DrainAggregated(p)
	}

	// The loop's closing barrier (a reduction's AllReduce already
	// synchronized).
	if closingBarrier {
		e.barrier(p)
	}

	if flushIn > 0 && !e.ghost {
		e.x.ExpectBlocks(flushIn)
		e.x.ReadyToRecv(p)
	}

	// Readers re-invalidate their frames so the directory's belief
	// (sender holds the only copy) is true again. Eliminated under the
	// whole-program assumptions (the frames are refilled next time).
	// The condition is on the global schedule, so every node agrees on
	// whether the extra barrier happens.
	if !rtElim && len(sched.Reads) > 0 {
		if !e.ghost {
			var recvIn []protocol.BlockRun
			for _, i := range v.ReadRecv {
				recvIn = append(recvIn, sched.Reads[i].Blocks...)
			}
			if len(recvIn) > 0 {
				e.x.ImplicitInvalidate(p, recvIn)
			}
		}
		e.barrier(p)
	}
}

// --- Iteration execution ----------------------------------------------

func (e *exec) runIterations(p *sim.Proc, pl *ir.ParLoop, pt *compiler.Partition) {
	// Per-element cost, with inner-reduction trip counts resolved
	// against the current symbol environment.
	flops := 0
	for _, as := range pl.Body {
		flops += 1 + e.dynOps(as.RHS)
	}
	elemCost := e.n.MC.LoopOver + sim.Time(flops)*e.n.MC.NsPerFlop

	fl := e.loops[pl]
	fl.runBody(fl.newMach(e, p), pt, elemCost)
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
	pt := e.an.Partition(rd, rule, e.env)

	var sched *compiler.Schedule
	if e.mp != nil {
		e.mpPreLoop(p, e.an.Schedule(rd, rule, e.env))
	} else if e.opt >= compiler.OptBase {
		sched = e.an.Schedule(rd, rule, e.env)
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
		partial := fl.runReduce(fl.newMach(e, p), pt, elemCost, rd.Op)
		e.scalars[rd.Target] = e.cluster.AllReduce(p, e.n, allReduceOp(rd.Op), partial)
	}

	if e.mp == nil && e.opt >= compiler.OptBase {
		e.postLoopComm(p, sched, false)
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
