package analysis

import (
	"fmt"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/sections"
)

// Model is the per-level verification state: it replays the program's
// control flow symbolically (SPMD control flow is replicated, so one
// walk stands for all nodes), folding per loop instance the calls the
// executor's emitter makes and checking them against the contract. The
// state that the checks depend on persists across loop instances
// exactly as it does at run time: open implicit_writable frames per
// node, the global barrier phase, and — in the planner, the same one an
// attempt's executors share — the delivered-section memo PRE consults
// and each loop's last instantiated schedule. One model serves every level.
type Model struct {
	an     *compiler.Analysis
	level  compiler.Level
	report *Report
	races  bool // run the (level-independent) race analysis on this pass

	phase  int    // global barrier phase counter
	frames frames // every node's open frames
	// onEvent, when a test sets it, sees every frame event and arrival
	// in the order the model applies them to the frames.
	onEvent func(event)
	// live holds, per array name, the keys of the transfers delivered
	// and not since invalidated by a write to the array.
	live map[string]map[string]bool

	plans *compiler.Planner // each instance's plan, as the runtime gets it
	inst  int               // instances planned so far
	em    compiler.Emitter
	fold  fold      // the current instance's calls, folded
	calls LoopCalls // the current instance, as FoldLoopCalls returns it
	// Tee, when a test sets it, wraps the fold for each node's calls
	// before (after false) and after the loop body: the one seam through
	// which a test watches or alters the stream the verifier checks.
	Tee func(node int, after bool, c compiler.Calls) compiler.Calls

	env     map[string]int
	checked map[Site]bool               // loop instances already diagnosed
	aligned map[*compiler.Schedule]bool // schedules whose transfers shmem_limits passed, at any level
	seen    map[Diag]bool               // diagnostic dedup
	gen     int                         // bumped on any state/diagnostic change (fixpoint detection)

	// interior and edges are checkAlignment's lists, reused from one
	// transfer's shmem_limits to the next; schedTo, per receiver, the
	// blocks an instance's read transfers send it, reused likewise.
	interior, edges []sections.BlockRun
	schedTo         [][]sections.BlockRun
}

// NewModel builds a fresh verification state for one optimization
// level, accumulating into rep.
func NewModel(an *compiler.Analysis, level compiler.Level, rep *Report) *Model {
	m := &Model{
		an:      an,
		level:   level,
		report:  rep,
		frames:  newFrames(an.NP),
		live:    map[string]map[string]bool{},
		plans:   compiler.NewPlanner(level),
		fold:    newFold(an.NP),
		schedTo: make([][]sections.BlockRun, an.NP),
		env:     map[string]int{},
		checked: map[Site]bool{},
		aligned: map[*compiler.Schedule]bool{},
		seen:    map[Diag]bool{},
	}
	for k, v := range an.Prog.Params {
		m.env[k] = v
	}
	return m
}

// reset makes m NewModel's at level, keeping its memory and its alignment
// memo (a walk restores env).
func (m *Model) reset(level compiler.Level) {
	m.level, m.phase, m.inst, m.plans = level, 0, 0, compiler.NewPlanner(level)
	for n := range m.frames.node {
		m.frames.node[n] = m.frames.node[n][:0]
	}
	for _, arr := range m.live {
		clear(arr)
	}
	clear(m.checked)
	clear(m.seen)
}

func (m *Model) bump() { m.gen++ }

// frameCall applies a frame event to its node's open frames:
// implicit_writable opens one, at the event's phase, over the blocks the
// node has none open for; implicit_invalidate takes its blocks out of
// them all.
func (m *Model) frameCall(e event) {
	if m.onEvent != nil {
		m.onEvent(e)
	}
	switch e.kind {
	case evOpen:
		if m.frames.open(e.node, e.phase, e.blocks) {
			m.bump()
		}
	case evClose:
		m.frames.close(e.node, e.blocks)
	}
}

// addDiag records a diagnostic, dropping exact duplicates (repeated
// instances of the same loop produce identical findings).
func (m *Model) addDiag(d Diag) {
	if m.seen[d] {
		return
	}
	m.seen[d] = true
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
	site := Site{App: m.an.Prog.Name, Loop: label, Env: sigOf(rule, m.env), Level: m.level}
	if pt := m.an.Partition(key, rule, m.env); pt.Err != nil {
		// No partition, so no schedule to check: the program is wrong, not
		// the compiler's calls.
		if !m.checked[site] {
			m.checked[site] = true
			m.bump()
			m.addDiag(Diag{Severity: Error, Rule: RuleBounds, Site: site, Msg: pt.Err.Error()})
			m.report.markBroken(label, RuleBounds)
		}
		return
	}
	var sched *compiler.Schedule // none at OptNone: default protocol only
	if m.level >= compiler.OptBase {
		sched = m.an.Schedule(key, rule, m.env)
	}
	lc := m.FoldLoopCalls(key, site, sched, reduceExpr != nil)
	if !m.checked[site] {
		m.checked[site] = true
		m.bump()
		m.CheckLoopCalls(lc)
		if m.races {
			m.CheckRaces(key, rule, m.env, site, body, reduceExpr)
		}
	} else {
		// Repeat instance: the checks would repeat verbatim, but the
		// happens-before state must still advance.
		m.advance(lc)
	}
	// PRE liveness: executed read transfers deliver their sections ...
	for _, t := range lc.Reads {
		arr := m.live[t.Array.Name]
		if arr == nil {
			arr = map[string]bool{}
			m.live[t.Array.Name] = arr
		}
		if !arr[t.Key] {
			arr[t.Key] = true
			m.bump()
		}
	}
	// ... and any write to an array invalidates every delivered copy of
	// it (the kill set markRedundant reasons about, re-derived here).
	// The array's set is emptied, not dropped: it fills again.
	kill := func(name string) {
		if arr := m.live[name]; len(arr) > 0 {
			clear(arr)
			m.bump()
		}
	}
	for _, as := range body {
		kill(as.LHS.Array.Name)
	}
	for _, t := range lc.Writes {
		kill(t.Array.Name)
	}
}

// advance replays a repeat instance's effect on the happens-before
// state (frames open, phase advances) without re-diagnosing.
func (m *Model) advance(lc *LoopCalls) {
	for _, e := range lc.f.frames {
		m.frameCall(e)
	}
	m.phase += lc.Barriers[0]
}

// Levels returns every optimization level, in ascending order.
func Levels() []compiler.Level {
	return []compiler.Level{compiler.OptNone, compiler.OptBase, compiler.OptBulk, compiler.OptRTElim, compiler.OptPRE}
}

// VerifyAnalysis runs the verifier over an existing compilation at the
// given levels (race analysis runs once, on the first). It never runs
// the simulator.
func VerifyAnalysis(an *compiler.Analysis, levels ...compiler.Level) *Report {
	return verify(an, nil, levels)
}

// verify is VerifyAnalysis with the model's Tee set to tee.
func verify(an *compiler.Analysis, tee func(int, bool, compiler.Calls) compiler.Calls, levels []compiler.Level) *Report {
	rep := NewReport(an.Prog.Name)
	m := NewModel(an, compiler.OptNone, rep)
	m.Tee = tee
	for i, lv := range levels {
		rep.Levels = append(rep.Levels, lv)
		m.reset(lv)
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
