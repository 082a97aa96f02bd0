package analysis_test

import (
	"fmt"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
)

// BenchmarkCheckLoopCalls is the verifier's layer number: the whole
// static check of one compiled program — every schedule instance folded
// and held to the contract at all five levels — on 8 and 64 flat nodes
// and on 256 in a radix-4 tree, so that its growth with the machine
// shows. lu instantiates a schedule per pivot step (the most instances
// of any shipped application), pde is the stencil whose frames stay
// open across iterations. The analysis
// is built once: its schedule cache is warm after the first op, so an op
// is the verifier's own work.
func BenchmarkCheckLoopCalls(b *testing.B) {
	for _, name := range []string{"lu", "pde"} {
		a, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := a.Program(a.BenchParams)
		if err != nil {
			b.Fatal(err)
		}
		for _, mc := range []config.Machine{
			config.Default().WithNodes(8),
			config.Default().WithNodes(64),
			config.Default().WithNodes(256).WithTopology(config.TreeTopo).WithRadix(4),
		} {
			_, layouts := compiler.Place(prog, mc)
			an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/nodes=%d", name, mc.Nodes), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if rep := analysis.VerifyAnalysis(an, analysis.Levels()...); rep.HasErrors() {
						b.Fatalf("verifier errors:\n%s", rep)
					}
				}
			})
		}
	}
}

// TestVerifyAllocsCeiling holds the verifier's allocations on a warm
// analysis — pde at 64 nodes, every schedule already built — to the
// count it reached when one model came to serve all five levels (626,
// from 2 332), plus a tenth: the model's memory is grown once per call,
// not once per level, instance or node.
func TestVerifyAllocsCeiling(t *testing.T) {
	a, err := apps.ByName("pde")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.BenchParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithNodes(64)
	_, layouts := compiler.Place(prog, mc)
	an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	analysis.VerifyAnalysis(an, analysis.Levels()...) // builds every schedule
	const ceiling = 626 * 11 / 10
	if n := testing.AllocsPerRun(5, func() { analysis.VerifyAnalysis(an, analysis.Levels()...) }); n > ceiling {
		t.Fatalf("VerifyAnalysis of pde on 64 nodes allocates %v times, ceiling %d", n, ceiling)
	}
}
