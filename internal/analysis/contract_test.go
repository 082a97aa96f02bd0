package analysis_test

import (
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// The fixture has one shift-read loop (send/ready_to_recv traffic) and
// one non-owner-write loop (mk_writable/flush traffic): together they
// exercise every call the contract checker reasons about.
const fixtureSrc = `
PROGRAM fixture
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 1:n, j = 2:n)
  b(i, j) = a(i, j-1)
END FORALL
FORALL (i = 1:n, j = 1:n-1) ON b(i, j)
  a(i, j+1) = b(i, j)
END FORALL
END
`

func compileFixture(t *testing.T) (*compiler.Analysis, []*ir.ParLoop) {
	t.Helper()
	prog, err := lang.Parse(fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	var loops []*ir.ParLoop
	for _, s := range prog.Body {
		if pl, ok := s.(*ir.ParLoop); ok {
			loops = append(loops, pl)
		}
	}
	if len(loops) != 2 {
		t.Fatalf("fixture: want 2 loops, got %d", len(loops))
	}
	return an, loops
}

// buildFixture returns a fresh model/report pair and the modeled call
// sequence of one fixture loop at OptBulk.
func buildFixture(t *testing.T, loopIdx int) (*analysis.Model, *analysis.Report, *analysis.LoopCalls) {
	t.Helper()
	an, loops := compileFixture(t)
	rep := analysis.NewReport(an.Prog.Name)
	m := analysis.NewModel(an, compiler.OptBulk, rep)
	env := map[string]int{}
	for k, v := range an.Prog.Params {
		env[k] = v
	}
	pl := loops[loopIdx]
	lc := m.BuildLoopCalls(pl, pl.Label, an.LoopRuleOf(pl), env, false)
	return m, rep, lc
}

// errorRules returns the distinct rules of the report's error
// diagnostics.
func errorRules(rep *analysis.Report) map[string]bool {
	out := map[string]bool{}
	for _, d := range rep.Diags {
		if d.Severity == analysis.Error {
			out[d.Rule] = true
		}
	}
	return out
}

// dropOps removes calls matching keep==false from every node's list.
func dropOps(lc *analysis.LoopCalls, keep func(c analysis.Call, postBody bool) bool) {
	for n := range lc.Nodes {
		var out []analysis.Call
		post := false
		for _, c := range lc.Nodes[n] {
			if c.Op == analysis.OpBody {
				post = true
			}
			if keep(c, post) {
				out = append(out, c)
			}
		}
		lc.Nodes[n] = out
	}
}

// The mutations the contract tests apply to a fixture loop's recorded
// calls, named so that TestContractDiagnosticsPinned applies the same
// ones.

func dropReadyToRecv(lc *analysis.LoopCalls) {
	dropOps(lc, func(c analysis.Call, post bool) bool { return c.Op != analysis.OpReadyToRecv })
}

// dropFlushSide removes the writers' flush and the consumers' post-loop
// expect/ready.
func dropFlushSide(lc *analysis.LoopCalls) {
	dropOps(lc, func(c analysis.Call, post bool) bool {
		if c.Op == analysis.OpFlush {
			return false
		}
		if post && (c.Op == analysis.OpExpect || c.Op == analysis.OpReadyToRecv) {
			return false
		}
		return true
	})
}

func dropImplicitWritable(lc *analysis.LoopCalls) {
	dropOps(lc, func(c analysis.Call, post bool) bool { return c.Op != analysis.OpImplicitWritable })
}

// dropLastBarrierOfNode0 removes node 0's last barrier only.
func dropLastBarrierOfNode0(lc *analysis.LoopCalls) {
	last := -1
	for i, c := range lc.Nodes[0] {
		if c.Op == analysis.OpBarrier {
			last = i
		}
	}
	lc.Nodes[0] = append(lc.Nodes[0][:last:last], lc.Nodes[0][last+1:]...)
}

// skipDeadRead lists the first read transfer as elided by PRE though
// its delivered copy is not live.
func skipDeadRead(lc *analysis.LoopCalls) {
	lc.Skipped = append(lc.Skipped, analysis.SkippedTransfer{T: lc.Reads[0], Live: false})
}

// driftReadMatrices corrupts the first read transfer's cell of the
// schedule's traffic matrices.
func driftReadMatrices(lc *analysis.LoopCalls) {
	ref := lc.Sched.Reads[0]
	lc.Sched.ReadBytes[ref.Sender][ref.Receiver] += 1
	lc.Sched.ReadMsgs[ref.Sender][ref.Receiver] += 3
}

// TestContractCleanFixture: the unmutated call sequences satisfy the
// contract.
func TestContractCleanFixture(t *testing.T) {
	for idx := 0; idx < 2; idx++ {
		m, rep, lc := buildFixture(t, idx)
		m.CheckLoopCalls(lc)
		if rep.HasErrors() {
			t.Fatalf("loop %d: clean fixture produced errors:\n%s", idx, rep)
		}
		if got := rep.RulesFor(lc.Site.Loop); len(got) == 0 {
			t.Fatalf("loop %d: no rules recorded as verified", idx)
		}
	}
}

// TestContractDroppedReadyToRecv: removing the consumers' ready_to_recv
// yields exactly contract/recv-match errors, with loop provenance.
func TestContractDroppedReadyToRecv(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	dropReadyToRecv(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if len(rules) != 1 || !rules[analysis.RuleRecvMatch] {
		t.Fatalf("want exactly {%s}, got %v:\n%s", analysis.RuleRecvMatch, rules, rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Rule == analysis.RuleRecvMatch && d.Severity == analysis.Error {
			if d.Site.Loop != lc.Site.Loop {
				t.Fatalf("diagnostic lacks loop provenance: %v", d)
			}
			if !strings.Contains(d.Msg, "ready_to_recv") {
				t.Fatalf("diagnostic does not name the missing call: %v", d)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no recv-match error:\n%s", rep)
	}
}

// TestContractUnflushedMkWritable: removing the writers' flush side
// (flush + the consumers' post-loop expect/ready) yields exactly
// contract/write-flush errors citing the array section.
func TestContractUnflushedMkWritable(t *testing.T) {
	m, rep, lc := buildFixture(t, 1)
	dropFlushSide(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if len(rules) != 1 || !rules[analysis.RuleWriteFlush] {
		t.Fatalf("want exactly {%s}, got %v:\n%s", analysis.RuleWriteFlush, rules, rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Rule == analysis.RuleWriteFlush && d.Severity == analysis.Error {
			if d.Site.Loop != lc.Site.Loop || d.Site.Array != "A" || d.Site.Sec == "" {
				t.Fatalf("diagnostic lacks loop/section provenance: %v", d)
			}
			if !strings.Contains(d.Msg, "never flushed") {
				t.Fatalf("diagnostic does not describe the lost flush: %v", d)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no write-flush error:\n%s", rep)
	}
	if got := rep.RulesFor(lc.Site.Loop); containsRule(got, analysis.RuleWriteFlush) {
		t.Fatalf("broken rule still reported as verified: %v", got)
	}
}

// TestContractDroppedImplicitWritable: consumers that never open frames
// trip the happens-before check for every arriving block.
func TestContractDroppedImplicitWritable(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	dropImplicitWritable(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if !rules[analysis.RuleFrameOrder] {
		t.Fatalf("want %s, got %v:\n%s", analysis.RuleFrameOrder, rules, rep)
	}
}

// TestContractBarrierParity: a node skipping its closing barrier is a
// deadlock, flagged as exactly contract/barrier.
func TestContractBarrierParity(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	dropLastBarrierOfNode0(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if len(rules) != 1 || !rules[analysis.RuleBarrier] {
		t.Fatalf("want exactly {%s}, got %v:\n%s", analysis.RuleBarrier, rules, rep)
	}
}

// TestContractBadElision: a PRE skip whose delivered copy is no longer
// live (the walker's independent re-derivation says an intervening
// write killed it) is exactly contract/elision.
func TestContractBadElision(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	if len(lc.Reads) == 0 {
		t.Fatal("fixture loop has no read transfers")
	}
	skipDeadRead(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if !rules[analysis.RuleElision] {
		t.Fatalf("want %s, got %v:\n%s", analysis.RuleElision, rules, rep)
	}
}

// TestContractAggMatrixDrift: corrupting the schedule's traffic
// matrices — the inputs the runtime's adaptive transport policy reads —
// is exactly contract/agg-matrix, and a clean run marks the rule
// verified.
func TestContractAggMatrixDrift(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	if len(lc.Sched.Reads) == 0 {
		t.Fatal("fixture loop has no read transfers")
	}
	driftReadMatrices(lc)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if len(rules) != 1 || !rules[analysis.RuleAggMatrix] {
		t.Fatalf("want exactly {%s}, got %v:\n%s", analysis.RuleAggMatrix, rules, rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Rule == analysis.RuleAggMatrix && d.Severity == analysis.Error {
			if d.Site.Loop != lc.Site.Loop {
				t.Fatalf("diagnostic lacks loop provenance: %v", d)
			}
			if !strings.Contains(d.Msg, "transport policy") {
				t.Fatalf("diagnostic does not explain the policy impact: %v", d)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no agg-matrix error:\n%s", rep)
	}
	if got := rep.RulesFor(lc.Site.Loop); containsRule(got, analysis.RuleAggMatrix) {
		t.Fatalf("broken rule still reported as verified: %v", got)
	}

	// A fresh, unmutated schedule verifies the rule.
	m2, rep2, lc2 := buildFixture(t, 0)
	m2.CheckLoopCalls(lc2)
	if rep2.HasErrors() {
		t.Fatalf("clean fixture produced errors:\n%s", rep2)
	}
	if got := rep2.RulesFor(lc2.Site.Loop); !containsRule(got, analysis.RuleAggMatrix) {
		t.Fatalf("clean run did not record %s as verified: %v", analysis.RuleAggMatrix, got)
	}
}

// TestSuppressionDowngrade: Apply downgrades a matching error to Info
// with the reason attached and reports stale entries.
func TestSuppressionDowngrade(t *testing.T) {
	m, rep, lc := buildFixture(t, 0)
	dropReadyToRecv(lc)
	m.CheckLoopCalls(lc)
	if !rep.HasErrors() {
		t.Fatal("expected errors before suppression")
	}
	stale := rep.Apply([]analysis.Suppression{
		{Rule: analysis.RuleRecvMatch, Loop: lc.Site.Loop, Reason: "known seed limitation"},
		{Rule: analysis.RuleBarrier, Loop: "nosuch", Reason: "stale"},
	})
	if rep.HasErrors() {
		t.Fatalf("suppression did not downgrade errors:\n%s", rep)
	}
	if len(stale) != 1 || stale[0].Loop != "nosuch" {
		t.Fatalf("stale suppressions wrong: %v", stale)
	}
}

func containsRule(rules []string, want string) bool {
	for _, r := range rules {
		if r == want {
			return true
		}
	}
	return false
}
