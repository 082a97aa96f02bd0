package analysis

import (
	"fmt"
	"slices"
	"strings"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/protocol"
)

// Op identifies one run-time call of the Section 4.2 sequence (plus the
// OpBody marker separating a loop's pre- and post-communication).
type Op int

// Call kinds.
const (
	OpMkWritable Op = iota
	OpImplicitWritable
	OpExpect
	OpSend
	OpReadyToRecv
	OpBody
	OpFlush
	OpImplicitInvalidate
	OpBarrier
)

func (o Op) String() string {
	return [...]string{"mk_writable", "implicit_writable", "expect", "send",
		"ready_to_recv", "<body>", "flush", "implicit_invalidate", "barrier"}[o]
}

// Call is one recorded run-time call on one node.
type Call struct {
	Op     Op
	Node   int
	Dst    int                 // Send / Flush destination
	Blocks []protocol.BlockRun // block operand
	N      int                 // Expect block count
}

func (c Call) String() string {
	switch c.Op {
	case OpSend, OpFlush:
		return fmt.Sprintf("%v -> node %d %v", c.Op, c.Dst, c.Blocks)
	case OpExpect:
		return fmt.Sprintf("%v %d", c.Op, c.N)
	case OpMkWritable, OpImplicitWritable, OpImplicitInvalidate:
		return fmt.Sprintf("%v %v", c.Op, c.Blocks)
	default:
		return c.Op.String()
	}
}

// SkippedTransfer records a transfer a higher optimization level
// elided, with the walker's independently derived judgement of whether
// the elision was sound at that point (Live: the previously delivered
// copy is still valid — no intervening write to the array).
type SkippedTransfer struct {
	T    compiler.Transfer
	Live bool
}

// LoopCalls is the recorded call sequence of one loop instance: per
// node, the run-time calls in program order, plus the (PRE-filtered)
// transfers the sequence implements and the transfers that were elided.
type LoopCalls struct {
	Key      any
	Site     Site
	Sched    *compiler.Schedule  // nil at OptNone
	Reads    []compiler.Transfer // active read transfers (after filtering)
	Writes   []compiler.Transfer // active write transfers
	Skipped  []SkippedTransfer   // transfers elided by OptPRE
	IsReduce bool
	Nodes    [][]Call
}

// sigOf renders a rule's symbol valuation for provenance ("" when the
// schedule is constant).
func sigOf(rule *compiler.LoopRule, env map[string]int) string {
	if len(rule.UsedSym) == 0 {
		return ""
	}
	parts := make([]string, len(rule.UsedSym))
	for i, v := range rule.UsedSym {
		parts[i] = fmt.Sprintf("%s=%d", v, env[v])
	}
	return strings.Join(parts, ",")
}

// recorder is the verifier's sink of the emitter: it keeps one node's
// calls as the emitter makes them.
type recorder struct {
	lc   *LoopCalls
	node int
}

func (r *recorder) add(c Call) {
	c.Node = r.node
	r.lc.Nodes[r.node] = append(r.lc.Nodes[r.node], c)
}

// blocks adds a call with a block operand, copied: the emitter's list
// is scratch.
func (r *recorder) blocks(op Op, b []protocol.BlockRun) {
	r.add(Call{Op: op, Blocks: slices.Clone(b)})
}

func (r *recorder) MkWritable(b []protocol.BlockRun)         { r.blocks(OpMkWritable, b) }
func (r *recorder) ImplicitWritable(b []protocol.BlockRun)   { r.blocks(OpImplicitWritable, b) }
func (r *recorder) ImplicitInvalidate(b []protocol.BlockRun) { r.blocks(OpImplicitInvalidate, b) }
func (r *recorder) Expect(n int)                             { r.add(Call{Op: OpExpect, N: n}) }
func (r *recorder) ReadyToRecv()                             { r.add(Call{Op: OpReadyToRecv}) }
func (r *recorder) Barrier()                                 { r.add(Call{Op: OpBarrier}) }
func (r *recorder) Drain()                                   {} // transport, not contract
func (r *recorder) Send(t *compiler.Transfer) {
	r.add(Call{Op: OpSend, Dst: t.Receiver, Blocks: t.Blocks})
}
func (r *recorder) Flush(t *compiler.Transfer) {
	r.add(Call{Op: OpFlush, Dst: t.Receiver, Blocks: t.Blocks})
}

// BuildLoopCalls records the call sequence of one loop (or reduction)
// instance at the model's optimization level, instantiating its
// schedule under env.
func (m *Model) BuildLoopCalls(key any, label string, rule *compiler.LoopRule, env map[string]int, isReduce bool) *LoopCalls {
	site := Site{App: m.an.Prog.Name, Loop: label, Env: sigOf(rule, env), Level: m.level}
	var sched *compiler.Schedule // none at OptNone: default protocol only
	if m.level >= compiler.OptBase {
		sched = m.an.Schedule(key, rule, env)
	}
	return m.RecordLoopCalls(key, site, sched, isReduce)
}

// RecordLoopCalls is BuildLoopCalls for an instance whose schedule the
// caller has: what the emitter the executor runs emits for each node —
// run-time elimination's call and barrier elisions and PRE's transfer
// skips included — from the same inputs the executor hands it, the
// level and the instance's plan off a planner of the model's own. The
// transfers the sequence implements and the ones PRE elided are listed
// beside it for the contract checks.
func (m *Model) RecordLoopCalls(key any, site Site, sched *compiler.Schedule, isReduce bool) *LoopCalls {
	lc := &LoopCalls{
		Key:      key,
		Site:     site,
		Sched:    sched,
		IsReduce: isReduce,
		Nodes:    make([][]Call, m.an.NP),
	}
	var plan *compiler.Plan
	if sched != nil {
		plan = m.plans.At(m.inst, key, sched)
		m.inst++
		for _, i := range plan.LiveReadIndexes() {
			if t := sched.Reads[i]; plan.Skips(i) {
				lc.Skipped = append(lc.Skipped, SkippedTransfer{T: t, Live: m.live[t.Key]})
			} else {
				lc.Reads = append(lc.Reads, t)
			}
		}
		for _, t := range sched.Writes {
			if t.NumBlocks > 0 {
				lc.Writes = append(lc.Writes, t)
			}
		}
	}
	rec := &recorder{lc: lc}
	for rec.node = range lc.Nodes {
		m.em.Pre(plan, rec.node, m.level, rec)
		rec.add(Call{Op: OpBody})
		if isReduce {
			rec.Barrier() // the AllReduce synchronizes
		}
		m.em.Post(plan, rec.node, m.level, isReduce, rec)
	}
	return lc
}
