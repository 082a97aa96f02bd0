package compiler

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/protocol"
)

// opLog is a sink that keeps the names of the calls it gets.
type opLog struct{ ops []string }

func (l *opLog) add(format string, args ...any) { l.ops = append(l.ops, fmt.Sprintf(format, args...)) }

func (l *opLog) MkWritable(b []protocol.BlockRun)         { l.add("mk_writable") }
func (l *opLog) ImplicitWritable(b []protocol.BlockRun)   { l.add("implicit_writable") }
func (l *opLog) Expect(n int)                             { l.add("expect") }
func (l *opLog) Send(t *Transfer)                         { l.add("send>%d", t.Receiver) }
func (l *opLog) ReadyToRecv()                             { l.add("ready_to_recv") }
func (l *opLog) Flush(t *Transfer)                        { l.add("flush>%d", t.Receiver) }
func (l *opLog) ImplicitInvalidate(b []protocol.BlockRun) { l.add("implicit_invalidate") }
func (l *opLog) Barrier()                                 { l.add("barrier") }
func (l *opLog) Drain()                                   { l.add("drain") }

// shiftProg is a loop that reads its left neighbour's boundary column
// (a send per node boundary) and one that writes its right neighbour's
// (mk_writable and flush), four nodes, columns of whole blocks.
func shiftProg(t *testing.T) (*Analysis, *ir.ParLoop, *ir.ParLoop) {
	t.Helper()
	prog, err := lang.Parse(`
PROGRAM shift
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
`)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(prog, 4, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	return an, prog.Body[0].(*ir.ParLoop), prog.Body[1].(*ir.ParLoop)
}

// TestEmitterSequence spells the Section 4.2 sequence out once more, as
// literals: node 1 of four (it sends right and receives from the left)
// at each level, first instance and repeat.
func TestEmitterSequence(t *testing.T) {
	an, rd, wr := shiftProg(t)
	walk := func(pl *Plan, level Level, reduce bool) string {
		var em Emitter
		var log opLog
		em.Pre(pl, 1, level, &log)
		log.add("|")
		em.Post(pl, 1, level, reduce, &log)
		return strings.Join(log.ops, " ")
	}
	reads := an.Schedule(rd, an.LoopRuleOf(rd), an.Prog.Params)
	writes := an.Schedule(wr, an.LoopRuleOf(wr), an.Prog.Params)
	for _, c := range []struct {
		name   string
		level  Level
		key    any
		sched  *Schedule
		repeat bool
		want   string
	}{
		{"read, bulk", OptBulk, rd, reads, false,
			"mk_writable barrier implicit_writable expect barrier send>2 drain ready_to_recv | barrier implicit_invalidate barrier"},
		{"read, bulk, repeat", OptBulk, rd, reads, true,
			"mk_writable barrier implicit_writable expect barrier send>2 drain ready_to_recv | barrier implicit_invalidate barrier"},
		{"read, rtelim", OptRTElim, rd, reads, false,
			"implicit_writable expect barrier send>2 drain ready_to_recv | barrier"},
		{"read, rtelim, repeat", OptRTElim, rd, reads, true,
			"implicit_writable expect send>2 drain ready_to_recv | barrier"},
		{"write, bulk", OptBulk, wr, writes, false,
			"mk_writable barrier implicit_writable barrier | flush>2 drain barrier expect ready_to_recv"},
		{"write, rtelim, repeat", OptRTElim, wr, writes, true,
			"mk_writable barrier implicit_writable | flush>2 drain barrier expect ready_to_recv"},
	} {
		pn := NewPlanner(c.level)
		pl := pn.At(0, c.key, c.sched)
		if c.repeat {
			pl = pn.At(1, c.key, c.sched)
		}
		if pl.Repeat != c.repeat {
			t.Fatalf("%s: plan's repeat flag is %v", c.name, pl.Repeat)
		}
		if got := walk(pl, c.level, false); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	// Below OptBase there is no plan: the closing barrier is the whole
	// sequence, and a reduction's combine stands in for that too.
	if got := walk(nil, OptNone, false); got != "| barrier" {
		t.Errorf("no plan: got %q", got)
	}
	if got := walk(nil, OptNone, true); got != "|" {
		t.Errorf("no plan, reduction: got %q", got)
	}

	// PRE: preProg's loops read the same sections of an array nothing
	// writes, so the second skips every transfer and nothing is left to
	// set up.
	pa, l1, l2 := preProg(t)
	pn := NewPlanner(OptPRE)
	pn.At(0, l1, pa.Schedule(l1, pa.LoopRuleOf(l1), pa.Prog.Params))
	if got := walk(pn.At(1, l2, pa.Schedule(l2, pa.LoopRuleOf(l2), pa.Prog.Params)), OptPRE, false); got != "| barrier" {
		t.Errorf("all reads skipped by PRE: got %q", got)
	}
}

// TestEmitterAllocatesNothing: once its scratch has grown, a walk with
// blocks to move allocates nothing at any level.
func TestEmitterAllocatesNothing(t *testing.T) {
	an, rd, wr := shiftProg(t)
	for _, level := range []Level{OptBase, OptBulk, OptRTElim, OptPRE} {
		pn := NewPlanner(level)
		plans := []*Plan{
			pn.At(0, rd, an.Schedule(rd, an.LoopRuleOf(rd), an.Prog.Params)),
			pn.At(1, wr, an.Schedule(wr, an.LoopRuleOf(wr), an.Prog.Params)),
		}
		var em Emitter
		pass := func() {
			for _, pl := range plans {
				for node := 0; node < an.NP; node++ {
					em.Pre(pl, node, level, discard{})
					em.Post(pl, node, level, false, discard{})
				}
			}
		}
		pass()
		if n := testing.AllocsPerRun(10, pass); n != 0 {
			t.Errorf("%v: a walk allocates %v times, want 0", level, n)
		}
	}
}

// discard is a sink that checks block lists are non-empty and drops them.
type discard struct{}

func (discard) MkWritable(b []protocol.BlockRun)         { mustHaveBlocks(b) }
func (discard) ImplicitWritable(b []protocol.BlockRun)   { mustHaveBlocks(b) }
func (discard) ImplicitInvalidate(b []protocol.BlockRun) { mustHaveBlocks(b) }
func (discard) Expect(int)                               {}
func (discard) Send(*Transfer)                           {}
func (discard) ReadyToRecv()                             {}
func (discard) Flush(*Transfer)                          {}
func (discard) Barrier()                                 {}
func (discard) Drain()                                   {}

func mustHaveBlocks(b []protocol.BlockRun) {
	if len(b) == 0 || slices.ContainsFunc(b, func(r protocol.BlockRun) bool { return r.N <= 0 }) {
		panic(fmt.Sprintf("empty block list %v handed to a sink", b))
	}
}
