package compiler

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
)

// eachSchedule instantiates every schedule instance of prog: every
// parallel loop and reduction under every valuation of the enclosing
// sequential loops (full bounds — scalar flow and early exits do not
// change schedules).
func eachSchedule(a *Analysis, f func(label string, s *Schedule)) {
	env := map[string]int{}
	for k, v := range a.Prog.Params {
		env[k] = v
	}
	var walk func(stmts []ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, st := range stmts {
			switch st := st.(type) {
			case *ir.ParLoop:
				f(st.Label, a.Schedule(st, a.LoopRuleOf(st), env))
			case *ir.Reduce:
				f(st.Label, a.Schedule(st, a.ReduceRuleOf(st), env))
			case *ir.SeqLoop:
				for v := st.Lo.Eval(env); v <= st.Hi.Eval(env); v++ {
					env[st.Var] = v
					walk(st.Body)
				}
				delete(env, st.Var)
			case *ir.Block:
				walk(st.Body)
			}
		}
	}
	walk(a.Prog.Body)
}

// filter is the brute-force oracle: the indices of ts that keep accepts.
func filter(ts []Transfer, keep func(*Transfer) bool) []int32 {
	var out []int32
	for i := range ts {
		if keep(&ts[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkViews compares every node's view of s against the brute-force
// filter (which is ascending by construction), and checks that the views
// together cover each transfer accepted by keep exactly twice — once
// under its sender, once under its receiver — and no other.
func checkViews(t *testing.T, s *Schedule, np int, view func(p int) View, keep func(*Transfer) bool, edges bool) {
	t.Helper()
	seenR, seenW := make([]int, len(s.Reads)), make([]int, len(s.Writes))
	for p := 0; p < np; p++ {
		v := view(p)
		lists := []struct {
			name string
			got  []int32
			want []int32
			seen []int
		}{
			{"ReadSend", v.ReadSend, filter(s.Reads, func(x *Transfer) bool { return keep(x) && x.Sender == p }), seenR},
			{"ReadRecv", v.ReadRecv, filter(s.Reads, func(x *Transfer) bool { return keep(x) && x.Receiver == p }), seenR},
			{"WriteSend", v.WriteSend, filter(s.Writes, func(x *Transfer) bool { return keep(x) && x.Sender == p }), seenW},
			{"WriteRecv", v.WriteRecv, filter(s.Writes, func(x *Transfer) bool { return keep(x) && x.Receiver == p }), seenW},
			{"ReadEdges", v.ReadEdges, filter(s.Reads, func(x *Transfer) bool { return edges && x.Receiver == p && len(x.EdgeBlocks) > 0 }), nil},
		}
		for _, l := range lists {
			if !slices.Equal(l.got, l.want) {
				t.Fatalf("node %d %s = %v, brute force %v", p, l.name, l.got, l.want)
			}
			for _, i := range l.got {
				if l.seen != nil {
					l.seen[i]++
				}
			}
		}
	}
	times := func(x *Transfer) int {
		if keep(x) {
			return 2
		}
		return 0
	}
	for i, n := range seenR {
		if n != times(&s.Reads[i]) {
			t.Fatalf("read %d (%v) listed %d times over all nodes", i, s.Reads[i], n)
		}
	}
	for i, n := range seenW {
		if n != times(&s.Writes[i]) {
			t.Fatalf("write %d (%v) listed %d times over all nodes", i, s.Writes[i], n)
		}
	}
}

func TestNodeViewsMatchBruteForce(t *testing.T) {
	type cfg struct {
		app string
		np  int
	}
	var cfgs []cfg
	for _, a := range apps.All() {
		for _, np := range []int{1, 8, 64} {
			cfgs = append(cfgs, cfg{a.Name, np})
		}
	}
	cfgs = append(cfgs, cfg{"cg", 256})
	for _, c := range cfgs {
		c := c
		t.Run(fmt.Sprintf("%s@%d", c.app, c.np), func(t *testing.T) {
			app, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := app.Program(app.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(prog, c.np, buildLayouts(prog.Arrays), 128)
			if err != nil {
				t.Fatal(err)
			}
			checked := map[*Schedule]bool{}
			eachSchedule(a, func(label string, s *Schedule) {
				if checked[s] {
					return
				}
				checked[s] = true
				live := func(x *Transfer) bool { return x.NumBlocks > 0 }
				checkViews(t, s, c.np, s.View, live, true)
				checkViews(t, s, c.np, s.SectionView, func(*Transfer) bool { return true }, false)
				pl := NewPlanner(OptRTElim).At(0, label, s)
				if want := filter(s.Reads, live); !slices.Equal(pl.LiveReadIndexes(), want) || pl.LiveReads != len(want) {
					t.Fatalf("%s: plan has %d live reads %v, brute force %v", label, pl.LiveReads, pl.LiveReadIndexes(), want)
				}
				if want := len(filter(s.Writes, live)); pl.LiveWrites != want {
					t.Fatalf("%s: plan has %d live writes, brute force %d", label, pl.LiveWrites, want)
				}
			})
			if len(checked) == 0 {
				t.Fatal("no schedule instantiated")
			}
		})
	}
}

// preProg is two loops in a cycle that both read h's boundary columns
// while nothing writes h: every read of both is redundant.
func preProg(t *testing.T) (*Analysis, *ir.ParLoop, *ir.ParLoop) {
	t.Helper()
	prog, err := lang.Parse(`
PROGRAM pretest
PARAM n = 64
REAL h(n, n), u(n, n), w(n, n)
DISTRIBUTE h(*, BLOCK)
DISTRIBUTE u(*, BLOCK)
DISTRIBUTE w(*, BLOCK)
DO t = 1, 5
  FORALL (i = 2:n-1, j = 2:n-1)
    u(i, j) = h(i, j-1) + h(i, j+1)
  END FORALL
  FORALL (i = 2:n-1, j = 2:n-1)
    w(i, j) = h(i, j-1) + h(i, j+1)
  END FORALL
END DO
END
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(prog, 4, buildLayouts(prog.Arrays), 128)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Body[0].(*ir.SeqLoop).Body
	return a, body[0].(*ir.ParLoop), body[1].(*ir.ParLoop)
}

func TestPlannerSkipsDeliveredRedundantReads(t *testing.T) {
	a, l1, l2 := preProg(t)
	env := a.Prog.Params
	s1 := a.Schedule(l1, a.LoopRuleOf(l1), env)
	s2 := a.Schedule(l2, a.LoopRuleOf(l2), env)
	live := len(s1.Reads)
	if live == 0 || len(s2.Reads) != live {
		t.Fatalf("reads: %d and %d", len(s1.Reads), len(s2.Reads))
	}

	// Below OptPRE nothing is ever skipped.
	// A loop's instance repeats when its last one had the same schedule.
	loops := []any{l1, l2}
	rt := NewPlanner(OptRTElim)
	for k, s := range []*Schedule{s1, s2, s1, s2} {
		pl := rt.At(k, loops[k%2], s)
		if pl.LiveReads != live || pl.Skips(0) {
			t.Fatalf("rtelim instance %d: %d live reads, skips(0)=%v", k, pl.LiveReads, pl.Skips(0))
		}
		if pl.Repeat != (k >= 2) {
			t.Fatalf("rtelim instance %d: repeat = %v", k, pl.Repeat)
		}
	}
	// The same loop on another schedule does not repeat, and neither
	// does its return to the first.
	for k, s := range []*Schedule{s2, s1} {
		if rt.At(4+k, l1, s).Repeat {
			t.Fatalf("rtelim instance %d: a changed schedule counted as a repeat", 4+k)
		}
	}

	// At OptPRE the first instance delivers h's boundary sections; the
	// second loop's reads of the same sections, and every later
	// instance's, are skipped.
	pre := NewPlanner(OptPRE)
	first := pre.At(0, l1, s1)
	if first.LiveReads != live {
		t.Fatalf("first instance: %d of %d reads live", first.LiveReads, live)
	}
	var steady [2]*Plan
	for k, s := range []*Schedule{s2, s1, s2, s1, s2, s1} {
		pl := pre.At(k+1, loops[(k+1)%2], s)
		if pl.LiveReads != 0 {
			t.Fatalf("instance %d: %d reads still live", k+1, pl.LiveReads)
		}
		for i := range s.Reads {
			if !pl.Skips(int32(i)) {
				t.Fatalf("instance %d: read %d not skipped", k+1, i)
			}
		}
		// A loop in steady state (from its second repeat on: the first
		// instance and the first repeat differ in the flag) gets the
		// same plan every time.
		if k >= 4 && steady[k%2] != pl {
			t.Fatalf("instance %d: steady-state plan not shared", k+1)
		}
		steady[k%2] = pl
	}
	// A second node asking for the same instances reads the same plans.
	if pre.At(0, l1, s1) != first || pre.At(5, l2, s2) != steady[0] {
		t.Fatal("second reader got a different plan")
	}
	if n := len(pre.Instances()); n != 7 {
		t.Fatalf("planned %d instances, want 7", n)
	}
}

func TestPlannerPanicsOnDivergingNodes(t *testing.T) {
	a, l1, l2 := preProg(t)
	env := a.Prog.Params
	s1 := a.Schedule(l1, a.LoopRuleOf(l1), env)
	s2 := a.Schedule(l2, a.LoopRuleOf(l2), env)
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("panic %v, want one containing %q", r, want)
			}
		}()
		f()
	}
	pn := NewPlanner(OptPRE)
	pn.At(0, l1, s1)
	mustPanic("different schedules for loop instance 0", func() { pn.At(0, l2, s2) })
	mustPanic("instance 2 requested when only 1", func() { pn.At(2, l1, s1) })
}

// TestPlannerAndIndexFromConcurrentNodes: executors of different PDES
// partitions reach a schedule's index and the attempt's planner at the
// same time. Each of the goroutines below is one node walking the same
// instance sequence; all must be handed the same plans, and the views
// must be the brute-force ones whoever built the index.
func TestPlannerAndIndexFromConcurrentNodes(t *testing.T) {
	a, l1, l2 := preProg(t)
	s1 := a.Schedule(l1, a.LoopRuleOf(l1), a.Prog.Params)
	s2 := a.Schedule(l2, a.LoopRuleOf(l2), a.Prog.Params)
	seq := []*Schedule{s1, s2, s1, s2, s1, s2}
	pn := NewPlanner(OptPRE)
	got := make([][]*Plan, a.NP)
	var wg sync.WaitGroup
	for p := 0; p < a.NP; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k, s := range seq {
				v := s.View(p)
				want := filter(s.Reads, func(x *Transfer) bool { return x.NumBlocks > 0 && x.Receiver == p })
				if !slices.Equal(v.ReadRecv, want) {
					t.Errorf("node %d instance %d: ReadRecv %v, brute force %v", p, k, v.ReadRecv, want)
				}
				got[p] = append(got[p], pn.At(k, k%2, s))
			}
		}(p)
	}
	wg.Wait()
	for p := 1; p < a.NP; p++ {
		if !slices.Equal(got[p], got[0]) {
			t.Fatalf("node %d was handed different plans than node 0", p)
		}
	}
}
