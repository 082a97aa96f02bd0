package analysis_test

import (
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
)

// BenchmarkCheckLoopCalls is the verifier's layer number: the whole
// static check of one compiled program — every schedule instance
// recorded and held to the contract at all five levels — on 64 nodes,
// where a loop instance has the most calls to compare. lu instantiates
// a schedule per pivot step (the most instances of any shipped
// application), pde is the stencil whose frames stay open across
// iterations. The analysis is built once: its schedule cache is warm
// after the first op, so an op is the verifier's own work.
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
		mc := config.Default().WithNodes(64)
		_, layouts := compiler.Place(prog, mc)
		an, err := compiler.New(prog, mc.Nodes, layouts, mc.BlockSize)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if rep := analysis.VerifyAnalysis(an, analysis.Levels()...); rep.HasErrors() {
					b.Fatalf("verifier errors:\n%s", rep)
				}
			}
		})
	}
}
