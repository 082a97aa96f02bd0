// Package bench is the experiment harness: it reruns the paper's
// evaluation — Figure 1, Tables 1-3, Figure 4, plus the PRE and
// block-size ablations — on the simulated cluster and formats the same
// rows and series the paper reports. cmd/paperbench drives it from the
// command line.
package bench

import (
	"fmt"
	"io"
	"maps"
	"sync"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
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

// LoadProgram builds the program a run simulates, for every command and
// experiment. Named by app, it is that application with its PARAMs at
// sizing s and params laid over them; a non-empty src then stands in
// for the application's text under the same PARAMs. With no app, src
// is parsed with params as its only overrides.
func LoadProgram(app, src string, s Sizing, params map[string]int) (*ir.Program, error) {
	if app == "" {
		return lang.ParseWithOverrides(src, params)
	}
	a, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	merged := ParamsFor(a, s)
	if len(params) > 0 {
		merged = maps.Clone(merged)
		maps.Copy(merged, params)
	}
	if src != "" {
		return lang.ParseWithOverrides(src, merged)
	}
	return a.Program(merged)
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

// Config is what every experiment reads from paperbench's flags.
type Config struct {
	Sizing Sizing
	// Nodes is the suite sweep's cluster size (-nodes).
	Nodes int
	// Workers bounds how many simulations run at once (-j); <= 1 runs
	// them one at a time, in order. Each sim.Env is self-contained, so
	// concurrent runs share only the read-only, internally locked
	// compiled-program caches.
	Workers int
}

// cell is one simulation of an experiment: the named app at the
// config's sizing, run with opts. When src is set it is simulated in
// place of the app's source, with the app's PARAMs at that sizing as
// overrides.
type cell struct {
	app  string
	src  string
	opts runtime.Options
}

// simulate runs every cell on the Workers pool and returns the results
// in cell order.
func (c Config) simulate(cells []cell) ([]*runtime.Result, error) {
	return grid(c.Workers, cells, func(x cell) (*runtime.Result, error) {
		prog, err := LoadProgram(x.app, x.src, c.Sizing, nil)
		if err != nil {
			return nil, err
		}
		return runtime.Run(prog, x.opts)
	})
}

// grid runs run on every cell, at most workers at a time, and returns
// the results in cell order, or the lowest-index error.
func grid[C, R any](workers int, cells []C, run func(C) (R, error)) ([]R, error) {
	out := make([]R, len(cells))
	err := forEachLimit(len(cells), workers, func(i int) (err error) {
		out[i], err = run(cells[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachLimit runs f(0)..f(n-1) on at most `workers` goroutines and
// returns the lowest-index error. With workers <= 1 it runs inline, in
// order.
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

// SuiteResults holds one result per (app, variant key) of a sweep on
// Nodes nodes.
type SuiteResults struct {
	Nodes   int
	Results map[string]map[string]*runtime.Result
}

// Get returns the result for an app/variant pair.
func (s *SuiteResults) Get(app, key string) *runtime.Result {
	return s.Results[app][key]
}

// RunSuite runs every app under every variant on cfg.Nodes nodes, then
// logs one line per run, in grid order, to w (which may be nil).
func RunSuite(cfg Config, w io.Writer) (*SuiteResults, error) {
	vs := Variants(cfg.Nodes)
	var cells []cell
	for _, app := range AppNames() {
		for _, v := range vs {
			cells = append(cells, cell{app: app, opts: runtime.Options{
				Machine: config.Default().WithNodes(v.Nodes).WithCPUMode(v.CPUMode),
				Opt:     v.Opt, Backend: v.Backend,
			}})
		}
	}
	res, err := cfg.simulate(cells)
	if err != nil {
		return nil, err
	}
	out := &SuiteResults{Nodes: cfg.Nodes, Results: map[string]map[string]*runtime.Result{}}
	for i, r := range res {
		app, key := cells[i].app, vs[i%len(vs)].Key
		if out.Results[app] == nil {
			out.Results[app] = map[string]*runtime.Result{}
		}
		out.Results[app][key] = r
		if w != nil {
			fmt.Fprintf(w, "running %-8s %-13s ... %8.2f ms, %7d misses\n",
				app, key, ms(r.Elapsed), r.Stats.TotalMisses())
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
