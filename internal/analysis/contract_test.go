package analysis_test

import (
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/protocol"
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

// tee is the model's test seam: it wraps the verifier's sink for one
// node's calls before (after false) or after the loop body.
type tee = func(node int, after bool, c compiler.Calls) compiler.Calls

// buildFixture returns a fresh model/report pair and one fixture loop's
// instance at OptBulk, its calls folded through tee (nil: as emitted).
func buildFixture(t *testing.T, loopIdx int, tee tee) (*analysis.Model, *analysis.Report, *analysis.LoopCalls) {
	t.Helper()
	an, loops := compileFixture(t)
	rep := analysis.NewReport(an.Prog.Name)
	m := analysis.NewModel(an, compiler.OptBulk, rep)
	m.Tee = tee
	pl := loops[loopIdx]
	site := analysis.Site{App: an.Prog.Name, Loop: pl.Label, Level: compiler.OptBulk}
	lc := m.FoldLoopCalls(pl, site, an.Schedule(pl, an.LoopRuleOf(pl), an.Prog.Params), false)
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

// filter forwards the calls keep accepts, each named as the verifier's
// diagnostics name it.
type filter struct {
	compiler.Calls
	keep func(op string) bool
}

func (f filter) MkWritable(b []protocol.BlockRun) {
	if f.keep("mk_writable") {
		f.Calls.MkWritable(b)
	}
}

func (f filter) ImplicitWritable(b []protocol.BlockRun) {
	if f.keep("implicit_writable") {
		f.Calls.ImplicitWritable(b)
	}
}

func (f filter) Expect(n int) {
	if f.keep("expect") {
		f.Calls.Expect(n)
	}
}

func (f filter) Send(t *compiler.Transfer) {
	if f.keep("send") {
		f.Calls.Send(t)
	}
}

func (f filter) ReadyToRecv() {
	if f.keep("ready_to_recv") {
		f.Calls.ReadyToRecv()
	}
}

func (f filter) Flush(t *compiler.Transfer) {
	if f.keep("flush") {
		f.Calls.Flush(t)
	}
}

func (f filter) ImplicitInvalidate(b []protocol.BlockRun) {
	if f.keep("implicit_invalidate") {
		f.Calls.ImplicitInvalidate(b)
	}
}

func (f filter) Barrier() {
	if f.keep("barrier") {
		f.Calls.Barrier()
	}
}

// dropping drops every call of the named kinds, on every node.
func dropping(ops ...string) tee {
	return func(_ int, _ bool, c compiler.Calls) compiler.Calls {
		return filter{c, func(op string) bool { return !slices.Contains(ops, op) }}
	}
}

// dropKth drops the k-th (from 1) op call that node makes.
func dropKth(node int, op string, k int) tee {
	seen := 0
	return func(n int, _ bool, c compiler.Calls) compiler.Calls {
		return filter{c, func(o string) bool {
			if n != node || o != op {
				return true
			}
			seen++
			return seen != k
		}}
	}
}

// The mutations the contract tests apply to a fixture loop's calls or
// to its folded instance, named so that TestContractDiagnosticsPinned
// applies the same ones.

var dropReadyToRecv = dropping("ready_to_recv")

// dropFlushSide removes the writers' flush and the consumers' post-loop
// expect/ready.
func dropFlushSide(_ int, after bool, c compiler.Calls) compiler.Calls {
	return filter{c, func(op string) bool {
		return op != "flush" && !(after && (op == "expect" || op == "ready_to_recv"))
	}}
}

var dropImplicitWritable = dropping("implicit_writable")

// dropLastBarrierOfNode0 removes node 0's last barrier only.
func dropLastBarrierOfNode0(t *testing.T, loopIdx int) tee {
	_, _, clean := buildFixture(t, loopIdx, nil)
	return dropKth(0, "barrier", clean.Barriers[0])
}

// skipDeadRead lists the first read transfer as elided by PRE though
// its delivered copy is not live.
func skipDeadRead(lc *analysis.LoopCalls) {
	lc.Skipped = append(lc.Skipped, analysis.SkippedTransfer{T: lc.Reads[0], Live: false})
}

// TestContractCleanFixture: the unmutated call sequences satisfy the
// contract.
func TestContractCleanFixture(t *testing.T) {
	for idx := 0; idx < 2; idx++ {
		m, rep, lc := buildFixture(t, idx, nil)
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
	m, rep, lc := buildFixture(t, 0, dropReadyToRecv)
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
	m, rep, lc := buildFixture(t, 1, dropFlushSide)
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
	m, rep, lc := buildFixture(t, 0, dropImplicitWritable)
	m.CheckLoopCalls(lc)

	rules := errorRules(rep)
	if !rules[analysis.RuleFrameOrder] {
		t.Fatalf("want %s, got %v:\n%s", analysis.RuleFrameOrder, rules, rep)
	}
}

// TestContractBarrierParity: a node skipping its closing barrier is a
// deadlock, flagged as exactly contract/barrier.
func TestContractBarrierParity(t *testing.T) {
	m, rep, lc := buildFixture(t, 0, dropLastBarrierOfNode0(t, 0))
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
	m, rep, lc := buildFixture(t, 0, nil)
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

// TestContractNumBlocksOffByOne: a transfer whose block count is one
// off its runs — the count its receiver expects and the transport policy
// sums — is exactly contract/shmem-limits, on the read and on the write
// side.
func TestContractNumBlocksOffByOne(t *testing.T) {
	for idx := 0; idx < 2; idx++ {
		for _, delta := range []int{-1, 1} {
			m, rep, lc := buildFixture(t, idx, nil)
			ts := lc.Reads
			if idx == 1 {
				ts = lc.Writes
			}
			if len(ts) == 0 {
				t.Fatalf("fixture loop %d has no transfers", idx)
			}
			ts[0].NumBlocks += delta
			m.CheckLoopCalls(lc)

			rules := errorRules(rep)
			if len(rules) != 1 || !rules[analysis.RuleAlignment] {
				t.Fatalf("loop %d, NumBlocks %+d: want exactly {%s}, got %v:\n%s", idx, delta, analysis.RuleAlignment, rules, rep)
			}
			if n := rep.Errors(); n != 1 || !strings.Contains(rep.Diags[0].Msg, "claims") {
				t.Fatalf("loop %d, NumBlocks %+d: want one diagnostic naming the claimed count, got %d:\n%s", idx, delta, n, rep)
			}
		}
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
