// Package bench is the experiment harness: it reruns the paper's
// evaluation — Figure 1, Tables 1-3, Figure 4, plus the PRE and
// block-size ablations — on the simulated cluster and formats the same
// rows and series the paper reports. cmd/paperbench drives it from the
// command line.
package bench

import (
	"fmt"
	"io"
	"sync"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
)

// Sizing selects the problem sizes for suite experiments.
type Sizing int

// Sizings.
const (
	// Bench sizes run the full sweep in minutes.
	Bench Sizing = iota
	// Paper sizes match Table 2 (slow: tens of minutes).
	Paper
	// Scaled sizes are the small test configurations.
	Scaled
)

// SizingNames lists the values ParseSizing accepts, for flag help.
const SizingNames = "bench, paper, scaled"

// ParseSizing resolves the value of a CLI's -size flag.
func ParseSizing(name string) (Sizing, error) {
	s, ok := map[string]Sizing{"bench": Bench, "paper": Paper, "scaled": Scaled}[name]
	if !ok {
		return 0, fmt.Errorf("unknown -size %q (valid: %s)", name, SizingNames)
	}
	return s, nil
}

// ParamsFor returns an app's parameters under a sizing.
func ParamsFor(a *apps.App, s Sizing) map[string]int {
	switch s {
	case Paper:
		return a.PaperParams
	case Scaled:
		return a.ScaledParams
	default:
		return a.BenchParams
	}
}

// Variant is one machine/optimization configuration of the sweep.
type Variant struct {
	Key     string
	Nodes   int
	CPUMode config.CPUMode
	Opt     compiler.Level
	Backend runtime.Backend
}

// Variants returns the full paper sweep: a uniprocessor baseline,
// unoptimized and optimized shared memory on both CPU configurations,
// the intermediate optimization levels (for Figure 4), PRE, and the
// message-passing baseline.
func Variants(nodes int) []Variant {
	return []Variant{
		{Key: "uni", Nodes: 1, CPUMode: config.DualCPU, Opt: compiler.OptNone},
		{Key: "unopt-single", Nodes: nodes, CPUMode: config.SingleCPU, Opt: compiler.OptNone},
		{Key: "unopt-dual", Nodes: nodes, CPUMode: config.DualCPU, Opt: compiler.OptNone},
		{Key: "base-dual", Nodes: nodes, CPUMode: config.DualCPU, Opt: compiler.OptBase},
		{Key: "bulk-dual", Nodes: nodes, CPUMode: config.DualCPU, Opt: compiler.OptBulk},
		{Key: "opt-single", Nodes: nodes, CPUMode: config.SingleCPU, Opt: compiler.OptRTElim},
		{Key: "opt-dual", Nodes: nodes, CPUMode: config.DualCPU, Opt: compiler.OptRTElim},
		{Key: "pre-dual", Nodes: nodes, CPUMode: config.DualCPU, Opt: compiler.OptPRE},
		{Key: "mp", Nodes: nodes, CPUMode: config.DualCPU, Backend: runtime.MessagePassing},
	}
}

// SuiteWorkers bounds how many independent simulations RunSuite and
// the grid experiments may run concurrently. Each sim.Env is fully
// self-contained, so runs only share the (read-only, internally
// locked) compiled-program caches. Values <= 1 run serially.
var SuiteWorkers = 1

// forEachLimit runs f(0)..f(n-1) on at most `workers` goroutines and
// returns the lowest-index error. With workers <= 1 it runs inline, in
// order — the streaming path the CLIs use by default. Results must be
// written to per-index storage by f; output ordering is the caller's
// job (grid experiments collect first, then print rows in grid order,
// so parallel output is byte-identical to serial).
func forEachLimit(n, workers int, f func(int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Partitions selects the conservative-PDES partition count for RunApp
// simulations (the -pdes flag). Values <= 1 keep the sequential event
// loop. Message-passing variants always run sequentially: the MP
// backend models send/receive outside the window scheduler's
// lookahead analysis, and the runtime would reject the combination.
var Partitions = 1

// RunApp executes one app under one variant.
func RunApp(a *apps.App, params map[string]int, v Variant) (*runtime.Result, error) {
	prog, err := a.Program(params)
	if err != nil {
		return nil, err
	}
	mc := config.Default().WithNodes(v.Nodes).WithCPUMode(v.CPUMode)
	opts := runtime.Options{Machine: mc, Opt: v.Opt, Backend: v.Backend}
	if Partitions > 1 && v.Backend != runtime.MessagePassing {
		opts.Partitions = Partitions
	}
	return runtime.Run(prog, opts)
}

// SuiteResults holds one result per (app, variant key).
type SuiteResults struct {
	Results map[string]map[string]*runtime.Result
}

// Get returns the result for an app/variant pair.
func (s *SuiteResults) Get(app, key string) *runtime.Result {
	return s.Results[app][key]
}

// RunSuite runs every app under every variant, logging progress to w
// (which may be nil). With SuiteWorkers > 1 the (app, variant) grid
// runs on a bounded worker pool; results and log lines still come out
// in grid order, identical to the serial run.
func RunSuite(sizing Sizing, nodes int, w io.Writer) (*SuiteResults, error) {
	type job struct {
		a *apps.App
		v Variant
	}
	var jobs []job
	out := &SuiteResults{Results: map[string]map[string]*runtime.Result{}}
	for _, a := range apps.All() {
		out.Results[a.Name] = map[string]*runtime.Result{}
		for _, v := range Variants(nodes) {
			jobs = append(jobs, job{a, v})
		}
	}
	workers := SuiteWorkers
	streaming := workers <= 1 && w != nil
	results := make([]*runtime.Result, len(jobs))
	err := forEachLimit(len(jobs), workers, func(i int) error {
		j := jobs[i]
		if streaming {
			fmt.Fprintf(w, "running %-8s %-13s ... ", j.a.Name, j.v.Key)
		}
		res, err := RunApp(j.a, ParamsFor(j.a, sizing), j.v)
		if err != nil {
			if streaming {
				fmt.Fprintln(w, "error")
			}
			return fmt.Errorf("%s/%s: %w", j.a.Name, j.v.Key, err)
		}
		results[i] = res
		if streaming {
			fmt.Fprintf(w, "%8.2f ms, %7d misses\n", ms(res.Elapsed), res.Stats.TotalMisses())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		out.Results[j.a.Name][j.v.Key] = results[i]
		if w != nil && !streaming {
			fmt.Fprintf(w, "running %-8s %-13s ... %8.2f ms, %7d misses\n",
				j.a.Name, j.v.Key, ms(results[i].Elapsed), results[i].Stats.TotalMisses())
		}
	}
	return out, nil
}

// AppNames returns the suite's app names in Table 2 order.
func AppNames() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }
