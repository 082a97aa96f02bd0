// Golden-stats determinism tests: the simulated quantities below must
// reproduce exactly for all six applications at level 3 (OptRTElim),
// 8 nodes, dual CPU, scaled sizes, and for the irregular extension
// with the inspector off and on. A simulator *optimization* that
// shifts any of them is a bug: the order in which the loop executor
// (internal/runtime/fastloop.go) touches memory decides the miss
// sequence, and these rows are the bit-exact gate on it. A
// deliberate *model* change — such as the barrier-epoch message
// aggregation layer, which re-captured every row — must update them
// together with the differential tests, which remain the semantic
// gate: data words are bit-identical with aggregation on or off.
// (Most recent such change: a direct protocol-engine send now drains
// the destination's gather buffer at compose time, so buffered
// segments keep their earlier departure slots — previously a write
// grant parked in a buffer could be overtaken by the next
// transaction's invalidation, leaving the grantee a writer the
// directory had already retired. shallow/grav/cg shifted; the others
// never hit the reordering window.)
package hpfdsm_test

import (
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/bench"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
)

var goldenOptRTElim = []struct {
	app     string
	elapsed sim.Time
	misses  int64
	msgs    int64
	bytes   int64
}{
	{"pde", 549657000, 8680, 36404, 4945108},
	{"shallow", 118847410, 1298, 9034, 1067276},
	{"grav", 55140330, 211, 3164, 169952},
	{"lu", 77808310, 609, 5584, 403200},
	{"cg", 53025230, 555, 3658, 225379},
	{"jacobi", 24362300, 224, 1612, 183536},
}

func TestGoldenStatsOptRTElim(t *testing.T) {
	for _, g := range goldenOptRTElim {
		g := g
		t.Run(g.app, func(t *testing.T) {
			a, err := apps.ByName(g.app)
			if err != nil {
				t.Fatal(err)
			}
			r, err := bench.RunApp(a, a.ScaledParams,
				bench.Variant{Nodes: 8, CPUMode: config.DualCPU, Opt: compiler.OptRTElim})
			if err != nil {
				t.Fatal(err)
			}
			if r.Elapsed != g.elapsed {
				t.Errorf("elapsed %d, golden %d", r.Elapsed, g.elapsed)
			}
			if m := r.Stats.TotalMisses(); m != g.misses {
				t.Errorf("misses %d, golden %d", m, g.misses)
			}
			if m := r.Stats.TotalMessages(); m != g.msgs {
				t.Errorf("messages %d, golden %d", m, g.msgs)
			}
			if b := r.Stats.TotalBytes(); b != g.bytes {
				t.Errorf("bytes %d, golden %d", b, g.bytes)
			}
		})
	}
}

// goldenIrregular pins the paper's future-work class (affine stencil +
// indirect gathers, apps.Irregular) at scaled size on the default
// 8-node machine, with the inspector off and on: the indirect loops are
// the only ones whose loads the compiler cannot schedule, so their
// fault sequence is gated here and nowhere else.
var goldenIrregular = []struct {
	inspect bool
	opt     compiler.Level
	elapsed sim.Time
	misses  int64
	msgs    int64
	bytes   int64
}{
	{false, compiler.OptNone, 119111170, 3024, 12446, 660184},
	{false, compiler.OptRTElim, 97298520, 2856, 7846, 631964},
	{true, compiler.OptNone, 135973370, 906, 12914, 699496},
	{true, compiler.OptRTElim, 114109720, 738, 8314, 671276},
}

func TestGoldenStatsIrregular(t *testing.T) {
	a := apps.Irregular()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenIrregular {
		r, err := runtime.Run(prog, runtime.Options{
			Machine: config.Default(), Opt: g.opt, InspectIndirect: g.inspect})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]int64{int64(r.Elapsed), r.Stats.TotalMisses(), r.Stats.TotalMessages(), r.Stats.TotalBytes()}
		want := [4]int64{int64(g.elapsed), g.misses, g.msgs, g.bytes}
		if got != want {
			t.Errorf("inspect=%v %v: elapsed/misses/msgs/bytes %v, golden %v", g.inspect, g.opt, got, want)
		}
	}
}

// goldenCGTree64 pins cg (scaled) on 64 nodes, combining tree of radix
// 4 — the shape of the repository benchmark's tree_scale workload. At
// this size every transfer of every schedule is edge-only (two or three
// vector elements per node, no whole coherence block), so OptPRE and
// OptRTElim coincide and what the rows gate is the part of the pre-loop
// sequence that still runs then: the reader's stale-frame scan over its
// own edge blocks, and the barriers the global live counts decide.
var goldenCGTree64 = []struct {
	opt     compiler.Level
	elapsed sim.Time
	misses  int64
	msgs    int64
	bytes   int64
}{
	{compiler.OptRTElim, 408039580, 6421, 37000, 2204296},
	{compiler.OptPRE, 408039580, 6421, 37000, 2204296},
}

func TestGoldenStatsCGTree64(t *testing.T) {
	a, err := apps.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default().WithNodes(64).WithTopology(config.TreeTopo).WithRadix(4)
	for _, g := range goldenCGTree64 {
		r, err := runtime.Run(prog, runtime.Options{Machine: mc, Opt: g.opt})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]int64{int64(r.Elapsed), r.Stats.TotalMisses(), r.Stats.TotalMessages(), r.Stats.TotalBytes()}
		want := [4]int64{int64(g.elapsed), g.misses, g.msgs, g.bytes}
		if got != want {
			t.Errorf("%v: elapsed/misses/msgs/bytes %v, golden %v", g.opt, got, want)
		}
	}
}
