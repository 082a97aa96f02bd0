package analysis

import (
	"fmt"
	"strings"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

// Model is the per-level verification state: it replays the program's
// control flow symbolically (SPMD control flow is replicated, so one
// walk stands for all nodes), recording per loop instance the calls the
// executor's emitter makes and checking them against the contract. The
// state that the checks depend on persists across loop instances
// exactly as it does at run time: open implicit_writable frames per
// node, the global barrier phase, and — in the planner, the same one an
// attempt's executors share — the delivered-section memo PRE consults
// and each loop's last instantiated schedule.
type Model struct {
	an     *compiler.Analysis
	level  compiler.Level
	report *Report
	races  bool // run the (level-independent) race analysis on this pass

	phase  int             // global barrier phase counter
	frames [][]frame       // per node: its open frames
	live   map[string]bool // transfer keys delivered and not since invalidated by a write

	plans *compiler.Planner // each instance's plan, as the runtime gets it
	inst  int               // instances planned so far
	em    compiler.Emitter

	env     map[string]int
	checked map[string]bool // loop|sig instances already diagnosed
	seen    map[string]bool // diagnostic dedup
	gen     int             // bumped on any state/diagnostic change (fixpoint detection)
}

// NewModel builds a fresh verification state for one optimization
// level, accumulating into rep.
func NewModel(an *compiler.Analysis, level compiler.Level, rep *Report) *Model {
	m := &Model{
		an:      an,
		level:   level,
		report:  rep,
		frames:  make([][]frame, an.NP),
		live:    map[string]bool{},
		plans:   compiler.NewPlanner(level),
		env:     map[string]int{},
		checked: map[string]bool{},
		seen:    map[string]bool{},
	}
	for k, v := range an.Prog.Params {
		m.env[k] = v
	}
	return m
}

func (m *Model) bump() { m.gen++ }

// frame is the blocks a node opened with implicit_writable in one
// barrier phase and has not invalidated since. A block is in at most
// one of a node's frames: the earliest opening stands.
type frame struct {
	phase  int
	blocks []protocol.BlockRun
}

// frameCall applies a call to its node's open frames: implicit_writable
// opens one, at the call's phase, over the blocks the node has none open
// for; implicit_invalidate takes its blocks out of them all.
func (m *Model) frameCall(c phased) {
	open := m.frames[c.Node]
	switch c.Op {
	case OpImplicitWritable:
		fresh := c.Blocks
		for _, f := range open {
			fresh = sections.Minus(fresh, f.blocks)
		}
		if fresh = sections.Normalize(fresh); len(fresh) > 0 {
			m.frames[c.Node] = append(open, frame{c.phase, fresh})
			m.bump()
		}
	case OpImplicitInvalidate:
		m.frames[c.Node] = open[:0]
		for _, f := range open {
			if f.blocks = sections.Minus(f.blocks, c.Blocks); len(f.blocks) > 0 {
				m.frames[c.Node] = append(m.frames[c.Node], f)
			}
		}
	}
}

// addDiag records a diagnostic, dropping exact duplicates (repeated
// instances of the same loop produce identical findings).
func (m *Model) addDiag(d Diag) {
	key := d.Rule + "|" + d.Site.String() + "|" + d.Msg
	if m.seen[key] {
		return
	}
	m.seen[key] = true
	m.report.add(d)
	m.bump()
}

// walk replays a statement list.
func (m *Model) walk(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.ParLoop:
			rule := m.an.LoopRuleOf(st)
			m.instance(st, st.Label, rule, st.Body, nil)
		case *ir.Reduce:
			rule := m.an.ReduceRuleOf(st)
			m.instance(st, st.Label, rule, nil, st.Expr)
		case *ir.SeqLoop:
			m.seqLoop(st)
		case *ir.ScalarAssign, *ir.ExitIf:
			// Scalar flow and early exits do not change schedules: the
			// verifier walks the full bounds (a superset of any actual
			// execution, so every reachable schedule is checked).
		case *ir.StartTimer:
			m.phase++ // the timer's synchronizing barrier
		case *ir.Block:
			m.walk(st.Body)
		default:
			panic(fmt.Sprintf("analysis: unknown statement %T", s))
		}
	}
}

// seqLoop replays a sequential loop to a fixpoint: once an iteration
// neither checks a new schedule instance nor changes any model state,
// every further iteration is identical and verification can stop early.
func (m *Model) seqLoop(sl *ir.SeqLoop) {
	lo, hi := sl.Lo.Eval(m.env), sl.Hi.Eval(m.env)
	saved, had := m.env[sl.Var]
	for v := lo; v <= hi; v++ {
		m.env[sl.Var] = v
		before := m.gen
		m.walk(sl.Body)
		if m.gen == before {
			break
		}
	}
	if had {
		m.env[sl.Var] = saved
	} else {
		delete(m.env, sl.Var)
	}
}

// instance verifies one loop/reduction instantiation and advances the
// model state.
func (m *Model) instance(key any, label string, rule *compiler.LoopRule, body []*ir.Assign, reduceExpr ir.Expr) {
	env := sigOf(rule, m.env)
	sig := label + "|" + env
	if pt := m.an.Partition(key, rule, m.env); pt.Err != nil {
		// No partition, so no schedule to check: the program is wrong, not
		// the compiler's calls.
		if !m.checked[sig] {
			m.checked[sig] = true
			m.bump()
			site := Site{App: m.an.Prog.Name, Loop: label, Env: env, Level: m.level}
			m.addDiag(Diag{Severity: Error, Rule: RuleBounds, Site: site, Msg: pt.Err.Error()})
			m.report.markBroken(label, RuleBounds)
		}
		return
	}
	lc := m.BuildLoopCalls(key, label, rule, m.env, reduceExpr != nil)
	if !m.checked[sig] {
		m.checked[sig] = true
		m.bump()
		m.CheckLoopCalls(lc)
		if m.races {
			m.CheckRaces(key, rule, m.env, lc.Site, body, reduceExpr)
		}
	} else {
		// Repeat instance: the checks would repeat verbatim, but the
		// happens-before state must still advance.
		m.advance(lc)
	}
	// PRE liveness: executed read transfers deliver their sections ...
	for _, t := range lc.Reads {
		if !m.live[t.Key] {
			m.live[t.Key] = true
			m.bump()
		}
	}
	// ... and any write to an array invalidates every delivered copy of
	// it (the kill set markRedundant reasons about, re-derived here).
	written := map[string]bool{}
	for _, as := range body {
		written[as.LHS.Array.Name] = true
	}
	for _, t := range lc.Writes {
		written[t.Array.Name] = true
	}
	for name := range written {
		prefix := name + "|"
		for tk := range m.live {
			if strings.HasPrefix(tk, prefix) {
				delete(m.live, tk)
				m.bump()
			}
		}
	}
}

// advance replays a repeat instance's effect on the happens-before
// state (frames open, phase advances) without re-diagnosing.
func (m *Model) advance(lc *LoopCalls) {
	bc := 0
	for _, c := range lc.Nodes[0] {
		if c.Op == OpBarrier {
			bc++
		}
	}
	for n := range lc.Nodes {
		b := 0
		for _, c := range lc.Nodes[n] {
			if c.Op == OpBarrier {
				b++
			}
			c.Node = n
			m.frameCall(phased{m.phase + b, c})
		}
	}
	m.phase += bc
}

// Levels returns every optimization level, in ascending order.
func Levels() []compiler.Level {
	return []compiler.Level{compiler.OptNone, compiler.OptBase, compiler.OptBulk, compiler.OptRTElim, compiler.OptPRE}
}

// VerifyAnalysis runs the verifier over an existing compilation at the
// given levels (race analysis runs once, on the first). It never runs
// the simulator.
func VerifyAnalysis(an *compiler.Analysis, levels ...compiler.Level) *Report {
	rep := NewReport(an.Prog.Name)
	for i, lv := range levels {
		rep.Levels = append(rep.Levels, lv)
		m := NewModel(an, lv, rep)
		m.races = i == 0
		m.walk(an.Prog.Body)
	}
	loops := map[string]bool{}
	ir.WalkStmts(an.Prog.Body, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.ParLoop:
			loops[st.Label] = true
		case *ir.Reduce:
			loops[st.Label] = true
		}
	})
	rep.Loops = len(loops)
	return rep
}

// Verify compiles prog for the machine exactly as the runtime would
// (same shared-segment layout, same block size) and verifies it at the
// given levels; with no levels it checks all of them.
func Verify(prog *ir.Program, mc config.Machine, levels ...compiler.Level) (*Report, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		return nil, err
	}
	if len(levels) == 0 {
		levels = Levels()
	}
	return VerifyAnalysis(an, levels...), nil
}
