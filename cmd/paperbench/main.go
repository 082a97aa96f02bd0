// Command paperbench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	paperbench [-exp all|<experiment>] [-size bench|paper|scaled] [-nodes 8] [-v]
//
// `paperbench -h` lists the experiments. Absolute times come from the
// simulation's 1996-class machine model; the paper's *shapes* (who wins,
// by what factor, where the weak cases are) are the reproduction
// target. See EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"

	"hpfdsm/internal/bench"
	"hpfdsm/internal/profiling"
)

// ctx is what an experiment reads: the flags that select its inputs
// and, for the suite experiments, the finished sweep.
type ctx struct {
	sizing   bench.Sizing
	suite    *bench.SuiteResults
	pdes     int
	traceOut string
}

// experiments is every -exp name, in the order `-exp all` runs them.
var experiments = []struct {
	name      string
	needSuite bool // reads the (app, variant) sweep of bench.RunSuite
	extra     bool // runs only when named, not under -exp all
	run       func(ctx) (string, error)
}{
	{name: "table1", run: func(ctx) (string, error) { return bench.Table1(), nil }},
	{name: "fig1", run: fig1},
	{name: "table2", run: func(c ctx) (string, error) { return bench.Table2(c.sizing), nil }},
	{name: "fig3", needSuite: true, run: onSuite(bench.Fig3)},
	{name: "table3", needSuite: true, run: onSuite(bench.Table3)},
	{name: "fig4", needSuite: true, run: onSuite(bench.Fig4)},
	{name: "pre", needSuite: true, run: onSuite(bench.PRE)},
	{name: "blocksize", run: sized(bench.BlockSize)},
	{name: "prefetch", run: sized(bench.Prefetch)},
	{name: "consistency", run: sized(bench.Consistency)},
	{name: "distribution", run: sized(bench.Distribution)},
	{name: "irregular", run: sized(bench.Irregular)},
	{name: "network", run: sized(bench.Network)},
	{name: "faults", run: sized(bench.Faults)},
	{name: "agg", run: sized(bench.Agg)},
	{name: "scale", extra: true, run: func(c ctx) (string, error) { return bench.Scale(c.sizing, c.pdes) }},
	{name: "pdes", extra: true, run: sized(bench.PDES)},
}

func onSuite(f func(*bench.SuiteResults) string) func(ctx) (string, error) {
	return func(c ctx) (string, error) { return f(c.suite), nil }
}

func sized(f func(bench.Sizing) (string, error)) func(ctx) (string, error) {
	return func(c ctx) (string, error) { return f(c.sizing) }
}

// fig1 prints the microbenchmark and, under -trace-out, also writes
// its causal protocol trace.
func fig1(c ctx) (string, error) {
	out := bench.Fig1()
	if c.traceOut == "" {
		return out, nil
	}
	var trace bytes.Buffer
	if err := bench.Fig1Trace(10).WriteChrome(&trace); err != nil {
		return "", err
	}
	if err := os.WriteFile(c.traceOut, trace.Bytes(), 0o666); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s\nwrote %s (open in https://ui.perfetto.dev)", out, c.traceOut), nil
}

func main() {
	os.Exit(run())
}

// run returns the exit code. Nothing below profiling.Start may call
// os.Exit: the deferred stop is what flushes and closes the
// -cpuprofile/-trace files.
func run() (exitCode int) {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	size := flag.String("size", "bench", "problem sizes: "+bench.SizingNames)
	nodes := flag.Int("nodes", 8, "cluster size for suite experiments")
	verbose := flag.Bool("v", false, "log each run")
	workers := flag.Int("j", goruntime.GOMAXPROCS(0), "max concurrent simulations in sweeps")
	pdes := flag.Int("pdes", 1, "partition each simulation across this many OS threads (conservative PDES; 1 = sequential, statistics bit-identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	traceOut := flag.String("trace-out", "", "with -exp fig1: write the microbenchmark's causal protocol trace (Chrome trace-event JSON) to this file")
	flag.Parse()

	bench.SuiteWorkers = *workers
	bench.Partitions = *pdes

	stopProf, err := profiling.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "profiling:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
	}()

	c := ctx{pdes: *pdes, traceOut: *traceOut}
	if c.sizing, err = bench.ParseSizing(*size); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if c.sizing == bench.Paper {
		fmt.Fprintln(os.Stderr, "note: paper sizes simulate the full Table 2 problems; expect long runs")
	}

	selected, needSuite := experiments[:0:0], false
	for _, e := range experiments {
		if e.name == *exp || *exp == "all" && !e.extra {
			selected = append(selected, e)
			needSuite = needSuite || e.needSuite
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	if needSuite {
		var log io.Writer
		if *verbose {
			log = os.Stderr
		}
		if c.suite, err = bench.RunSuite(c.sizing, *nodes, log); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	}

	for _, e := range selected {
		out, err := e.run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		fmt.Println(out)
	}
	return 0
}
