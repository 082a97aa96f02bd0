package main

import (
	_ "embed"
	"fmt"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
)

//go:embed programs/storm.hpf
var stormSource string

// Sizes. ISSUE 11 fixed every problem size and left only the iteration
// counts to tune, for passes of 1.5 to 3 s. The driver's budget (136
// runs of three set-ups and at least seven timed passes in 57 minutes)
// needs passes near one second, and pde's cost is mostly its
// initialisation, which no iteration count shrinks. So, as the issue
// allows once the pass count is at its floor of seven, the two pde
// workloads use the app's scaled grid (64 instead of 96) and
// frontend_verify uses BenchParams on 8 and 64 nodes (paper PARAMs on
// 256 nodes take over a minute a pass). Everything else is as specified.
var (
	stencilPDE     = map[string]int{"N": 64, "ITERS": 8}
	stormSize      = map[string]int{"N": 512, "ITERS": 4}
	treeCGMaxIt    = 6 // cg {N=360} on 256 nodes; BenchParams has 60
	pdesPDE        = map[string]int{"N": 64, "ITERS": 4}
	frontendNodes  = []int{8, 64}
	lossyShallowIt = 4                                     // shallow {N1=257, N2=129}; BenchParams has 10
	lossyJacobi    = map[string]int{"N": 256, "ITERS": 12} // crashFor's epoch range assumes these
)

// A unit is one run of a pass: one runtime.Run, or (verify) one trip
// through the front end with no simulation.
type unit struct {
	label  string
	src    string
	params map[string]int
	mc     config.Machine
	level  compiler.Level
	check  bool // Options.Check: coherence audits at every barrier
	parts  int  // > 1: PDES partitions; the unit before it is its sequential twin
	twin   bool // sequential base of the next unit: compared and timed, but not part of wall_s
	verify bool // compiler.New uncached, then VerifyAnalysis at all five levels
	ref    func(map[string]int) map[string][]float64
	arrays []string
	tol    float64
}

type workload struct {
	name string
	why  string
	// units makes the pass from the seed. smoke selects the scaled sizes
	// the smoke test runs; nothing measured at them is comparable.
	units func(seed uint64, smoke bool) []unit
}

func appUnit(name string, params map[string]int, mc config.Machine, level compiler.Level) unit {
	a, err := apps.ByName(name)
	if err != nil {
		panic(err) // a typo in this file
	}
	return unit{label: name, src: a.Source, params: params, mc: mc, level: level,
		ref: a.Reference, arrays: a.CheckArrays, tol: a.Tol}
}

// sized gives an app's PARAMs: its BenchParams overlaid with the
// workload's own values, or (smoke) its ScaledParams as they are.
func sized(name string, own map[string]int, smoke bool) map[string]int {
	a, err := apps.ByName(name)
	if err != nil {
		panic(err)
	}
	out := map[string]int{}
	if smoke {
		own = a.ScaledParams
	} else {
		for k, v := range a.BenchParams {
			out[k] = v
		}
	}
	for k, v := range own {
		out[k] = v
	}
	return out
}

var workloads = []workload{
	{
		name: "stencil_opt",
		why:  "the paper's optimized case: few misses, so the compiled loop body and the memory tag check do most of the work",
		units: func(_ uint64, smoke bool) []unit {
			mc := config.Default()
			return []unit{
				appUnit("pde", sized("pde", stencilPDE, smoke), mc, compiler.OptRTElim),
				appUnit("shallow", sized("shallow", nil, smoke), mc, compiler.OptRTElim),
			}
		},
	},
	{
		name: "miss_storm",
		why:  "every neighbour column is remote at OptNone: event heap, coroutine hand-off, handlers, directory and wire do the work, the loop body little",
		units: func(seed uint64, smoke bool) []unit {
			p := stormCoefficients(seed)
			for k, v := range stormSize {
				p[k] = v
			}
			if smoke {
				p["N"], p["ITERS"] = 64, 2
			}
			return []unit{{label: "storm", src: stormSource, params: p, mc: config.Default(),
				level: compiler.OptNone, ref: stormRef, arrays: []string{"A"}, tol: 1e-12}}
		},
	},
	{
		name: "tree_scale",
		why:  "256 compute processes, combining-tree reductions every iteration, multicast invalidation: a deep heap and many procs, few misses per node",
		units: func(_ uint64, smoke bool) []unit {
			nodes := 256
			if smoke {
				nodes = 64
			}
			mc := config.Default().WithNodes(nodes).WithTopology(config.TreeTopo).WithRadix(4)
			return []unit{appUnit("cg", sized("cg", map[string]int{"MAXIT": treeCGMaxIt}, smoke), mc, compiler.OptRTElim)}
		},
	},
	{
		name: "pdes_p2",
		why:  "the only workload in which sim/pdes.go runs; each pass pairs a sequential and a 2-partition run so the ratio survives host drift",
		units: func(_ uint64, smoke bool) []unit {
			p := sized("pde", pdesPDE, smoke)
			seq := appUnit("pde", p, config.Default(), compiler.OptRTElim)
			seq.label, seq.twin = "pde-seq", true
			par := appUnit("pde", p, config.Default(), compiler.OptRTElim)
			par.label, par.parts = "pde-p2", 2
			return []unit{seq, par}
		},
	},
	{
		name: "frontend_verify",
		why:  "no simulation: parse, uncached communication analysis, every schedule instance and the static verifier at all five levels",
		units: func(_ uint64, smoke bool) []unit {
			var us []unit
			for _, a := range apps.All() {
				for _, n := range frontendNodes {
					us = append(us, unit{label: fmt.Sprintf("%s@%d", a.Name, n), src: a.Source,
						params: sized(a.Name, nil, smoke), mc: config.Default().WithNodes(n), verify: true})
				}
			}
			return us
		},
	},
	{
		name: "lossy_recover",
		why:  "the network, protocol and runtime layers used the other way round: freelists off, reliable layer and barrier audits on, checkpoints and one crash recovery",
		units: func(seed uint64, smoke bool) []unit {
			lossy := appUnit("shallow", sized("shallow", map[string]int{"ITERS": lossyShallowIt}, smoke),
				config.Default().WithFaults(config.Faults{Drop: .05, Dup: .02, Jitter: 30 * sim.Microsecond, Reorder: .05, Seed: seed}),
				compiler.OptRTElim)
			lossy.label, lossy.check = "shallow-lossy", true
			jp := lossyJacobi
			if smoke {
				jp = map[string]int{"N": 64, "ITERS": lossyJacobi["ITERS"]}
			}
			crash := appUnit("jacobi", jp,
				config.Default().WithFaults(config.Faults{Crashes: []config.CrashSpec{crashFor(seed)}}),
				compiler.OptRTElim)
			crash.label = "jacobi-crash"
			return []unit{lossy, crash}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stormCoefficients derives storm.hpf's initial-data coefficients from
// the seed (seed 1 gives the source's own defaults, 3 and 7).
func stormCoefficients(seed uint64) map[string]int {
	return map[string]int{"CA": 2 + int(seed%9), "CB": 6 + int(seed%5)}
}

// crashFor draws the crash victim and epoch from the valid range: any
// node but 0 (which holds the barrier master and may not be killed),
// and an epoch that jacobi at lossyJacobi's size reaches with
// at least one checkpoint behind it. Seed 1 gives node 2 at epoch 9.
func crashFor(seed uint64) config.CrashSpec {
	return config.CrashSpec{Node: 1 + int(seed%7), Epoch: 2 + int64(7*seed%20)}
}

// levelsOf is the set of optimization levels a unit's schedules are
// verified at: its own level for a simulated unit, all five otherwise.
func levelsOf(u unit) []compiler.Level {
	if u.verify {
		return analysis.Levels()
	}
	return []compiler.Level{u.level}
}

// stormRef is the sequential Go reference for programs/storm.hpf
// (column-major flattened, as runtime.Result.ArrayData returns it).
func stormRef(p map[string]int) map[string][]float64 {
	n, iters, ca, cb := p["N"], p["ITERS"], p["CA"], p["CB"]
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	at := func(i, j int) int { return (j-1)*n + (i - 1) }
	for j := 1; j <= n; j++ {
		for i := 1; i <= n; i++ {
			a[at(i, j)] = 0.001 * float64(ca*i+cb*j)
		}
	}
	for t := 0; t < iters; t++ {
		for j := 2; j <= n-1; j++ {
			for i := 2; i <= n-1; i++ {
				b[at(i, j)] = 0.25 * (a[at(i-1, j)] + a[at(i+1, j)] + a[at(i, j-1)] + a[at(i, j+1)])
			}
		}
		for j := 2; j <= n-1; j++ {
			for i := 2; i <= n-1; i++ {
				a[at(i, j)] = b[at(i, j)]
			}
		}
	}
	return map[string][]float64{"A": a}
}
