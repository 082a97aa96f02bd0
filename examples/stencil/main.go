// Stencil: run the paper's shallow-water benchmark across all
// optimization levels and both CPU configurations, printing the
// Figure 3 / Figure 4-style comparison for one application.
//
//	go run ./examples/stencil
package main

import (
	"flag"
	"fmt"
	"log"

	"hpfdsm"
)

func main() {
	iters := flag.Int("iters", 0, "override the iteration count (0 = the app's scaled default)")
	flag.Parse()

	params := map[string]int{}
	if *iters > 0 {
		params["ITERS"] = *iters
	}
	prog, err := hpfdsm.LoadProgram("shallow", "", hpfdsm.Scaled, params)
	if err != nil {
		log.Fatal(err)
	}

	run := func(mode hpfdsm.CPUMode, opt hpfdsm.OptLevel) *hpfdsm.Result {
		mc := hpfdsm.DefaultMachine().WithCPUMode(mode)
		res, err := hpfdsm.Run(prog, hpfdsm.Options{Machine: mc, Opt: opt})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("shallow water %dx%d, %d iterations, 8 nodes\n\n",
		prog.Param("N1"), prog.Param("N2"), prog.Param("ITERS"))
	fmt.Printf("%-12s %-10s %12s %14s %12s\n", "cpu mode", "opt", "elapsed", "misses/node", "comm avg")
	for _, mode := range []hpfdsm.CPUMode{hpfdsm.SingleCPU, hpfdsm.DualCPU} {
		for _, opt := range []hpfdsm.OptLevel{hpfdsm.OptNone, hpfdsm.OptBase, hpfdsm.OptBulk, hpfdsm.OptRTElim} {
			res := run(mode, opt)
			fmt.Printf("%-12v %-10v %10.2fms %14.1f %10.2fms\n",
				mode, opt, float64(res.Elapsed)/1e6,
				res.Stats.AvgMissesPerNode(), float64(res.Stats.AvgCommTime())/1e6)
		}
	}

	unopt := run(hpfdsm.DualCPU, hpfdsm.OptNone)
	opt := run(hpfdsm.DualCPU, hpfdsm.OptRTElim)
	fmt.Printf("\ncompiler-directed coherence cut execution time by %.1f%% and misses by %.1f%%\n",
		100*(1-float64(opt.Elapsed)/float64(unopt.Elapsed)),
		100*(1-opt.Stats.AvgMissesPerNode()/unopt.Stats.AvgMissesPerNode()))
}
