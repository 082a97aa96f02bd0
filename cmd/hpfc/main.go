// Command hpfc is the compiler driver: it parses a mini-HPF program
// (or one of the built-in applications), runs the communication
// analysis, and dumps what the paper's Section 4 computes — the work
// partition, the non-owner read/write rules per parallel loop, and the
// instantiated communication schedules with their block-aligned
// (shmem_limits) interiors and leftover edge bytes.
//
// With -lint it instead runs the static incoherence-safety verifier
// (internal/analysis) over every optimization level and exits non-zero
// on any contract or race error.
//
// Examples:
//
//	hpfc -app jacobi -nodes 8
//	hpfc -app lu -lint
//	hpfc -file prog.hpf -sched
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/sections"
)

func main() {
	app := flag.String("app", "", "application name")
	file := flag.String("file", "", "mini-HPF source file")
	nodes := flag.Int("nodes", 8, "processor count")
	blockSize := flag.Int("block", 128, "coherence block size")
	sched := flag.Bool("sched", true, "print instantiated schedules")
	lint := flag.Bool("lint", false, "run the static incoherence-safety verifier over every optimization level and exit non-zero on errors")
	calls := flag.Bool("calls", false, "print the run-time call sequence (Figure 2) each node executes per loop")
	printSrc := flag.Bool("print", false, "pretty-print the program as canonical mini-HPF source and exit")
	node := flag.Int("node", 0, "node whose calls to print with -calls")
	flag.Parse()

	var src string
	switch {
	case *app != "":
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		src = string(b)
	default:
		fail(fmt.Errorf("one of -app or -file is required"))
	}
	prog, err := bench.LoadProgram(*app, src, bench.Scaled, nil)
	if err != nil {
		fail(err)
	}

	if *printSrc {
		fmt.Print(lang.Print(prog))
		return
	}
	mc := config.Default().WithNodes(*nodes).WithBlockSize(*blockSize)
	if err := mc.Validate(); err != nil {
		fail(err)
	}
	// After the machine: a processor count that is no machine at all is
	// the error to report, not the -node range it implies.
	if *node < 0 || *node >= *nodes {
		fail(fmt.Errorf("-node %d is not one of the %d processors (0..%d)", *node, *nodes, *nodes-1))
	}
	if *lint {
		rep, err := analysis.Verify(prog, mc, analysis.Levels()...)
		if err != nil {
			fail(err)
		}
		fmt.Print(rep)
		if rep.HasErrors() {
			os.Exit(1)
		}
		return
	}
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, *nodes, layouts, *blockSize)
	if err != nil {
		fail(err)
	}

	fmt.Printf("program %s on %d processors, %dB blocks\n\n", prog.Name, *nodes, *blockSize)
	fmt.Println("arrays:")
	for _, arr := range prog.Arrays {
		d := an.Dist(arr)
		fmt.Printf("  %-10s %v  (chunk %d, %d bytes)\n", arr.Name, arr, d.ChunkSize(), arr.Elems()*8)
	}
	fmt.Println()

	env := map[string]int{}
	for k, v := range prog.Params {
		env[k] = v
	}
	if *calls {
		fmt.Printf("run-time calls executed by node %d (optimization level: bulk):\n\n", *node)
		// The executor's emitter, walked into a printing sink over the
		// plans a run's planner would hand out, at the bulk level: the full
		// sequence, before run-time elimination prunes it.
		plans, inst := compiler.NewPlanner(compiler.OptBulk), 0
		var em compiler.Emitter
		eachLoop(an, prog.Body, env, "calls", 0, func(key any, label string, rule *compiler.LoopRule, reduce bool, ind string) {
			plan := plans.At(inst, key, an.Schedule(key, rule, env))
			inst++
			out := printCalls(ind + "  ")
			fmt.Printf("%s%s:\n", ind, label)
			em.Pre(plan, *node, compiler.OptBulk, out)
			if reduce {
				out.say("<local part, then all-reduce>")
			} else {
				out.say("<loop body>")
			}
			em.Post(plan, *node, compiler.OptBulk, reduce, out)
		})
		return
	}
	eachLoop(an, prog.Body, env, "schedules", 0, func(key any, label string, rule *compiler.LoopRule, _ bool, ind string) {
		dumpRule(an, key, rule, env, *sched, ind, label)
	})
}

// printCalls is the sink that prints each call, behind its indentation.
type printCalls string

func (p printCalls) say(format string, args ...any) {
	fmt.Printf(string(p)+format+"\n", args...)
}

func (p printCalls) blocks(call string, b []protocol.BlockRun) {
	p.say("%-30s (%d blocks)", call, sections.CountBlocks(b))
}

func (p printCalls) transfer(call string, t *compiler.Transfer) {
	p.say("%-30s (%s%v, %d blocks)", fmt.Sprintf("%s -> node %d", call, t.Receiver), t.Array.Name, t.Sec, t.NumBlocks)
}

func (p printCalls) MkWritable(b []protocol.BlockRun)         { p.blocks("shmem_limits + mk_writable", b) }
func (p printCalls) ImplicitWritable(b []protocol.BlockRun)   { p.blocks("implicit_writable", b) }
func (p printCalls) ImplicitInvalidate(b []protocol.BlockRun) { p.blocks("implicit_invalidate", b) }
func (p printCalls) Expect(n int)                             { p.say("%-30s (%d blocks)", "expect", n) }
func (p printCalls) Send(t *compiler.Transfer)                { p.transfer("send", t) }
func (p printCalls) Flush(t *compiler.Transfer)               { p.transfer("flush", t) }
func (p printCalls) ReadyToRecv()                             { p.say("ready_to_recv") }
func (p printCalls) Barrier()                                 { p.say("barrier") }
func (p printCalls) Drain()                                   { p.say("drain_aggregated") }

// eachLoop visits the program's loops and reductions in order,
// sequential loops at their first iteration, which it announces as the
// one what is shown for.
func eachLoop(an *compiler.Analysis, body []ir.Stmt, env map[string]int, what string, depth int,
	visit func(key any, label string, rule *compiler.LoopRule, reduce bool, ind string)) {
	ind := strings.Repeat("  ", depth)
	// A loop whose bounds leave its anchor array has no partition, hence
	// nothing to show.
	loop := func(key any, label string, rule *compiler.LoopRule, reduce bool) {
		if pt := an.Partition(key, rule, env); pt.Err != nil {
			fail(fmt.Errorf("program %s, loop %s: %w", an.Prog.Name, label, pt.Err))
		}
		visit(key, label, rule, reduce, ind)
	}
	for _, s := range body {
		switch st := s.(type) {
		case *ir.ParLoop:
			loop(st, st.Label, an.LoopRuleOf(st), false)
		case *ir.Reduce:
			loop(st, st.Label, an.ReduceRuleOf(st), true)
		case *ir.Block:
			eachLoop(an, st.Body, env, what, depth, visit)
		case *ir.SeqLoop:
			lo := st.Lo.Eval(env)
			fmt.Printf("%sDO %s = %v, %v (%s shown for %s=%d)\n", ind, st.Var, st.Lo, st.Hi, what, st.Var, lo)
			env[st.Var] = lo
			eachLoop(an, st.Body, env, what, depth+1, visit)
			delete(env, st.Var)
		}
	}
}

func dumpRule(an *compiler.Analysis, key any, rule *compiler.LoopRule, env map[string]int, sched bool, ind, label string) {
	fmt.Printf("%sloop %s: anchor %v", ind, label, rule.Anchor)
	if rule.DistVar != "" {
		fmt.Printf(", owner-computes on %s", rule.DistVar)
	} else {
		fmt.Printf(", single-processor")
	}
	if len(rule.UsedSym) > 0 {
		fmt.Printf(", parametric in %v", rule.UsedSym)
	}
	fmt.Println()
	for _, rr := range rule.Reads {
		red := ""
		if rr.Redundant {
			red = "  [PRE: redundant]"
		}
		fmt.Printf("%s  non-owner read  %v (%v)%s\n", ind, rr.Ref, rr.Kind, red)
	}
	for _, rr := range rule.Writes {
		fmt.Printf("%s  non-owner write %v (%v)\n", ind, rr.Ref, rr.Kind)
	}
	if !sched {
		return
	}
	s := an.Schedule(key, rule, env)
	for _, t := range s.Reads {
		fmt.Printf("%s    send %v\n", ind, t)
	}
	for _, t := range s.Writes {
		fmt.Printf("%s    flush %v\n", ind, t)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hpfc:", err)
	os.Exit(1)
}
