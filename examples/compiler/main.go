// Compiler: inspect what the communication analysis derives for a
// program — the owner-computes partition, the non-owner-read sets, the
// producer->consumer schedules, and the block-aligned shmem_limits
// shrink — without running anything.
//
//	go run ./examples/compiler
package main

import (
	"fmt"
	"log"

	"hpfdsm"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
)

const source = `
PROGRAM demo
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 2:n-1, j = 2:n-1)
  b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
END FORALL
END
`

func main() {
	prog, err := hpfdsm.Compile(source, nil)
	if err != nil {
		log.Fatal(err)
	}

	const np, blockSize = 8, 128
	_, layouts := compiler.Place(prog, config.Default().WithNodes(np).WithBlockSize(blockSize))
	an, err := compiler.New(prog, np, layouts, blockSize)
	if err != nil {
		log.Fatal(err)
	}

	loop := prog.Body[0].(*ir.ParLoop)
	rule := an.LoopRuleOf(loop)
	env := map[string]int{"N": 64}

	fmt.Printf("loop %s: anchor %v, owner-computes on %q\n\n", loop.Label, rule.Anchor, rule.DistVar)

	fmt.Println("work partition (columns of the distributed dimension per processor):")
	pt := an.Partition(loop, rule, env)
	for p := 0; p < np; p++ {
		fmt.Printf("  proc %d executes j in %v\n", p, pt.Ranges[p])
	}

	fmt.Println("\nnon-owner-read rules:")
	for _, rr := range rule.Reads {
		fmt.Printf("  %v: kind %v (last subscript = %s%+d)\n", rr.Ref, rr.Kind, rr.SweepVar, rr.Rest.Const)
	}

	fmt.Println("\ninstantiated schedule (sender -> receiver, block-aligned interior):")
	for _, t := range an.Schedule(loop, rule, env).Reads {
		fmt.Printf("  %v\n", t)
	}
	fmt.Println("\nedge bytes stay with the default protocol — the paper's")
	fmt.Println("shmem_limits rule for multi-word coherence blocks.")
}
