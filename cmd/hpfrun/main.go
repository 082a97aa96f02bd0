// Command hpfrun runs one application (or a mini-HPF source file) on
// the simulated fine-grain DSM cluster and reports timing and
// communication statistics.
//
// Examples:
//
//	hpfrun -app jacobi -opt rtelim
//	hpfrun -app jacobi -opt pre -verify -check
//	hpfrun -app lu -nodes 4 -cpus 1 -size paper
//	hpfrun -app cg -backend mp
//	hpfrun -file prog.hpf -param N=512 -param ITERS=10 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/profiling"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/trace"
)

type crashFlags []config.CrashSpec

func (c *crashFlags) String() string { return fmt.Sprint([]config.CrashSpec(*c)) }
func (c *crashFlags) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		cs, err := config.ParseCrashSpec(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		*c = append(*c, cs)
	}
	return nil
}

type paramFlags map[string]int

func (p paramFlags) String() string { return fmt.Sprint(map[string]int(p)) }
func (p paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	p[strings.ToUpper(k)] = n
	return nil
}

func main() {
	os.Exit(run())
}

// run returns the exit code. Nothing below profiling.Start may call
// os.Exit: the deferred stop is what flushes and closes the
// -cpuprofile/-trace files.
func run() (exitCode int) {
	app := flag.String("app", "", "application: pde, shallow, grav, lu, cg, jacobi")
	file := flag.String("file", "", "mini-HPF source file (alternative to -app)")
	size := flag.String("size", "bench", "problem sizes for -app: "+bench.SizingNames)
	nodes := flag.Int("nodes", 8, "cluster size")
	topoName := flag.String("topo", "flat", "synchronization/invalidation topology: flat (master unicast) or tree (combining tree + multicast fan-out)")
	radix := flag.Int("radix", 0, "combining-tree radix for -topo tree (0 = default of 4)")
	cpus := flag.Int("cpus", 2, "CPUs per node: 2 = dedicated protocol processor, 1 = interleaved")
	optName := flag.String("opt", "rtelim", "optimization level: none, base, bulk, rtelim, pre")
	backend := flag.String("backend", "sm", "backend: sm (shared memory) or mp (message passing)")
	blockSize := flag.Int("block", 128, "coherence block size in bytes")
	machineFile := flag.String("machine", "", "JSON file overriding the machine configuration (fields of config.Machine)")
	showStats := flag.Bool("stats", false, "print per-node statistics")
	drop := flag.Float64("drop", 0, "fault injection: probability a transmission is lost (0..1)")
	dup := flag.Float64("dup", 0, "fault injection: probability a transmission is duplicated (0..1)")
	jitter := flag.Int64("jitter", 0, "fault injection: max extra per-message delay in microseconds")
	reorder := flag.Float64("reorder", 0, "fault injection: probability a message is delayed past later traffic (0..1)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection PRNG seed")
	var crashes crashFlags
	flag.Var(&crashes, "crash", `kill a node: "node=N@epoch=E" or "node=N@t=4ms" (repeatable, comma-separable)`)
	ckpt := flag.Bool("ckpt", false, "capture barrier-consistent checkpoints even with no crashes configured")
	ckptDir := flag.String("ckpt-dir", "", "persist the latest checkpoint blob to this directory (implies -ckpt)")
	check := flag.Bool("check", false, "audit coherence invariants at every barrier and reduction")
	verify := flag.Bool("verify", false, "statically verify the schedules at the selected level before running; refuse to simulate on hard errors")
	profile := flag.Bool("profile", false, "print a per-loop time profile")
	gantt := flag.Int("gantt", 0, "print an ASCII timeline this many characters wide, at least 10 (implies -profile)")
	profileJSON := flag.String("profile-json", "", "write the per-loop profile as JSON to this file (implies -profile)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	traceOut := flag.String("trace-out", "", "write the causal protocol-event trace (Chrome trace-event JSON, loadable in Perfetto) to this file")
	noAgg := flag.Bool("no-agg", false, "disable the barrier-epoch message aggregation layer")
	aggThreshold := flag.Int("agg-threshold", 0, "aggregation: per-(loop,destination) byte volume at which epoch aggregation replaces bulk transfer (0 = default of 2 blocks)")
	heatmap := flag.Bool("heatmap", false, "print the per-block heat map and residual-miss provenance table")
	heatmapJSON := flag.String("heatmap-json", "", "write the per-block heat map as JSON to this file")
	params := paramFlags{}
	flag.Var(params, "param", "override a PARAM (NAME=VALUE, repeatable)")
	flag.Parse()
	if *jitter > math.MaxInt64/sim.Microsecond || *jitter < -math.MaxInt64/sim.Microsecond {
		return fail(fmt.Errorf("-jitter %dus overflows the simulated clock (at most %dus)", *jitter, int64(math.MaxInt64/sim.Microsecond)))
	}
	if *gantt != 0 && *gantt < trace.MinGanttWidth {
		return fail(fmt.Errorf("-gantt must be 0 or at least %d characters wide, have %d", trace.MinGanttWidth, *gantt))
	}
	if *backend != "sm" && *backend != "mp" {
		return fail(fmt.Errorf("unknown -backend %q", *backend))
	}

	stopProf, err0 := profiling.Start(*cpuProfile, *memProfile, *traceFile)
	if err0 != nil {
		return fail(err0)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "hpfrun: profiling:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
	}()

	var src string
	sizing := bench.Bench
	switch {
	case *app != "":
		var err error
		if sizing, err = bench.ParseSizing(*size); err != nil {
			return fail(err)
		}
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		src = string(b)
	default:
		return fail(fmt.Errorf("one of -app or -file is required"))
	}
	prog, err := bench.LoadProgram(*app, src, sizing, params)
	if err != nil {
		return fail(err)
	}

	opt, err := compiler.ParseLevel(*optName)
	if err != nil {
		return fail(err)
	}
	mc := config.Default()
	if *machineFile != "" {
		f, err := os.Open(*machineFile)
		if err != nil {
			return fail(err)
		}
		mc, err = config.FromJSON(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	}
	tp, err := config.ParseTopology(*topoName)
	if err != nil {
		return fail(err)
	}
	cpuMode, ok := map[int]config.CPUMode{1: config.SingleCPU, 2: config.DualCPU}[*cpus]
	if !ok {
		return fail(fmt.Errorf("-cpus must be 1 or 2"))
	}
	if *noAgg {
		mc = mc.WithoutCoalesce()
	}
	if *aggThreshold != 0 {
		mc.AggThreshold = *aggThreshold
	}
	// A machine flag overrides the -machine file only when it is given
	// on the command line, a fault flag only the field it names, and
	// -crash adds to the file's crashes. Without a file every flag
	// applies, its default included, and faults stay off unless a flag
	// turns them on.
	f := mc.Faults
	set := map[string]func(){
		"nodes":      func() { mc = mc.WithNodes(*nodes) },
		"block":      func() { mc = mc.WithBlockSize(*blockSize) },
		"topo":       func() { mc = mc.WithTopology(tp) },
		"radix":      func() { mc = mc.WithRadix(*radix) },
		"cpus":       func() { mc = mc.WithCPUMode(cpuMode) },
		"drop":       func() { f.Drop = *drop },
		"dup":        func() { f.Dup = *dup },
		"jitter":     func() { f.Jitter = *jitter * sim.Microsecond },
		"reorder":    func() { f.Reorder = *reorder },
		"fault-seed": func() { f.Seed = *faultSeed },
	}
	visit := flag.VisitAll
	if *machineFile != "" {
		visit = flag.Visit
	}
	visit(func(fl *flag.Flag) {
		if apply := set[fl.Name]; apply != nil {
			apply()
		}
	})
	f.Crashes = append(f.Crashes, crashes...)
	if f.Active() || *machineFile != "" {
		mc = mc.WithFaults(f)
	}
	opts := runtime.Options{Machine: mc, Opt: opt, Check: *check,
		Checkpoint: *ckpt, CkptDir: *ckptDir,
		Profile: *profile || *gantt > 0 || *profileJSON != ""}
	var tracer *trace.Tracer
	if *traceOut != "" || *heatmap || *heatmapJSON != "" {
		tracer = trace.New(mc.Nodes)
		opts.Trace = tracer
	}
	if *verify {
		rep, err := analysis.Verify(prog, mc, opt)
		if err != nil {
			return fail(err)
		}
		if rep.HasErrors() {
			fmt.Fprint(os.Stderr, rep)
			return fail(fmt.Errorf("static verification failed with %d error(s); refusing to simulate", rep.Errors()))
		}
		fmt.Printf("verified  %d loop(s), %d schedule instance(s) at level %v: clean\n",
			rep.Loops, rep.Instances, opt)
		opts.Verified = rep
	}
	if *backend == "mp" {
		opts.Backend = runtime.MessagePassing
		if *check || *ckpt || *ckptDir != "" {
			fmt.Fprintln(os.Stderr, "hpfrun: -check and -ckpt audit and snapshot the shared-memory protocol's state; they do not apply to the message-passing backend and are ignored")
		}
	}

	res, err := runtime.Run(prog, opts)
	if err != nil {
		return fail(err)
	}
	if n := int64(len(mc.Faults.Crashes)); res.Recoveries < n {
		fmt.Fprintf(os.Stderr, "hpfrun: %d of %d configured crash(es) never fired or went undetected before the run ended\n",
			n-res.Recoveries, n)
	}

	fmt.Printf("program   %s\n", prog.Name)
	fmt.Printf("machine   %d node(s), %s, %dB blocks, backend %v, opt %v\n",
		mc.Nodes, mc.CPUMode, mc.BlockSize, opts.Backend, opt)
	if mc.Topology == config.TreeTopo {
		fmt.Printf("topology  tree, radix %d\n", mc.EffectiveRadix())
	}
	if f := mc.Faults; f.Active() {
		fmt.Printf("faults    drop=%.2g dup=%.2g jitter=%dus reorder=%.2g seed=%d crashes=%d\n",
			f.Drop, f.Dup, f.Jitter/1000, f.Reorder, f.Seed, len(f.Crashes))
	}
	if res.CheckpointsTaken > 0 {
		fmt.Printf("recovery  %d crash(es) detected, %d recover(ies), %.3f ms lost; %d checkpoint(s), %.1f KB\n",
			res.Recoveries, res.Recoveries, float64(res.RecoveryTime)/1e6,
			res.CheckpointsTaken, float64(res.CheckpointBytes)/1024)
	}
	fmt.Printf("elapsed   %.3f ms (simulated)\n", float64(res.Elapsed)/1e6)
	fmt.Printf("misses    %d total (%.1f per node)\n", res.Stats.TotalMisses(), res.Stats.AvgMissesPerNode())
	fmt.Printf("messages  %d (%.1f KB)\n", res.Stats.TotalMessages(), float64(res.Stats.TotalBytes())/1024)
	if s := res.Stats.TotalSegsCoalesced(); s > 0 {
		fmt.Printf("coalesced %d segment(s) into %d carrier(s)\n", s, res.Stats.TotalCarriersSent())
	}
	fmt.Printf("compute   %.3f ms avg/node\n", float64(res.Stats.AvgComputeTime())/1e6)
	fmt.Printf("comm+sync %.3f ms avg/node\n", float64(res.Stats.AvgCommTime())/1e6)
	if p50 := res.Stats.MissLatencyPercentile(0.5); p50 > 0 {
		fmt.Printf("miss lat  p50 < %.0f us, p95 < %.0f us\n",
			p50, res.Stats.MissLatencyPercentile(0.95))
	}
	if fs := res.Stats.FaultSummary(); fs != "" {
		fmt.Printf("reliable  %s\n", fs)
	}
	if res.BarrierChecks > 0 {
		fmt.Printf("checks    %d coherence audits passed (every barrier/reduction)\n", res.BarrierChecks)
	}
	if len(res.Scalars) > 0 {
		fmt.Printf("scalars   %v\n", res.Scalars)
	}
	if *showStats {
		fmt.Println()
		fmt.Print(res.Stats.String())
	}
	if *profile {
		fmt.Println()
		fmt.Print(res.Profile.String())
	}
	if *gantt > 0 {
		fmt.Println()
		fmt.Print(res.Profile.Gantt(*gantt))
	}
	if *profileJSON != "" {
		if err := writeFile(*profileJSON, res.Profile.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tracer.WriteChrome); err != nil {
			return fail(err)
		}
		fmt.Printf("trace     %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if *heatmap {
		fmt.Println()
		tracer.Heat.WriteText(os.Stdout, tracer.BlockInfo)
		fmt.Println()
		tracer.Heat.WriteMissTable(os.Stdout, tracer.BlockInfo)
	}
	if *heatmapJSON != "" {
		if err := writeFile(*heatmapJSON, tracer.Heat.WriteJSON); err != nil {
			return fail(err)
		}
	}
	return 0
}

// fail reports err and returns the failing exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hpfrun:", err)
	return 1
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
