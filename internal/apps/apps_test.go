package apps

import (
	"math"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

// checkApp runs one app at its scaled size under the given options and
// compares every check array against the sequential reference.
func checkApp(t *testing.T, a *App, opt runtime.Options) *runtime.Result {
	t.Helper()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, opt)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	want := a.Reference(a.ScaledParams)
	for _, name := range a.CheckArrays {
		got := res.ArrayData(name)
		ref := want[name]
		if len(got) != len(ref) {
			t.Fatalf("%s: array %s length %d vs reference %d", a.Name, name, len(got), len(ref))
		}
		worst, wi := 0.0, -1
		for i := range got {
			scale := math.Max(1, math.Abs(ref[i]))
			if d := math.Abs(got[i]-ref[i]) / scale; d > worst {
				worst, wi = d, i
			}
		}
		if worst > a.Tol {
			t.Fatalf("%s: array %s diverges from reference: rel err %g at %d (got %g want %g)",
				a.Name, name, worst, wi, got[wi], ref[wi])
		}
	}
	return res
}

func optLevels() []compiler.Level {
	return []compiler.Level{compiler.OptNone, compiler.OptBase, compiler.OptBulk, compiler.OptRTElim, compiler.OptPRE}
}

func TestAppsCorrectAllLevels(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, opt := range optLevels() {
				checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: opt})
			}
		})
	}
}

func TestAppsCorrectMessagePassing(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			checkApp(t, a, runtime.Options{Machine: config.Default(), Backend: runtime.MessagePassing})
		})
	}
}

func TestAppsCorrectSingleCPU(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			mc := config.Default().WithCPUMode(config.SingleCPU)
			checkApp(t, a, runtime.Options{Machine: mc, Opt: compiler.OptRTElim})
		})
	}
}

func TestAppsOptimizationReducesMisses(t *testing.T) {
	// Table 3's pattern: every application's miss count drops with the
	// optimizations; grav the least (edge effects on its 1032-byte
	// columns), stencils the most.
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			unopt := checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: compiler.OptNone})
			opt := checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim})
			mu, mo := unopt.Stats.TotalMisses(), opt.Stats.TotalMisses()
			if mo >= mu {
				t.Fatalf("misses did not drop: %d -> %d", mu, mo)
			}
			t.Logf("%s: misses %d -> %d (%.0f%% reduction)", a.Name, mu, mo, 100*(1-float64(mo)/float64(mu)))
		})
	}
}

func TestAppsMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if names[a.Name] {
			t.Fatalf("duplicate app %s", a.Name)
		}
		names[a.Name] = true
		if a.PaperProblem == "" || a.PaperMemMB <= 0 || len(a.CheckArrays) == 0 {
			t.Fatalf("%s: incomplete metadata", a.Name)
		}
		// Each size names only PARAMs the program declares.
		for size, params := range map[string]map[string]int{"paper": a.PaperParams, "scaled": a.ScaledParams, "bench": a.BenchParams} {
			if _, err := a.Program(params); err != nil {
				t.Fatalf("%s: %s-size program does not parse: %v", a.Name, size, err)
			}
		}
		if _, err := ByName(a.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown app")
	}
}

func TestMemoryFootprints(t *testing.T) {
	// Table 2 check: measured footprints at paper sizes should be in
	// the ballpark of the published ones (shallow and pde used 32-bit
	// reals; ours are float64).
	cases := map[string][2]float64{ // app -> min, max MB at paper size
		"jacobi":  {30, 70},
		"pde":     {40, 60},
		"shallow": {28, 60},
		"grav":    {16, 40},
		"lu":      {4, 10},
		"cg":      {0.9, 6},
	}
	for _, a := range All() {
		got := a.MemMB(a.PaperParams)
		rng := cases[a.Name]
		if got < rng[0] || got > rng[1] {
			t.Errorf("%s: footprint %.1f MB outside expected [%v, %v]", a.Name, got, rng[0], rng[1])
		}
	}
}

func TestIrregularApp(t *testing.T) {
	a := Irregular()
	// Correct at several levels on shared memory (the indirect gather
	// rides the default protocol; the affine field is optimized).
	for _, opt := range []compiler.Level{compiler.OptNone, compiler.OptBulk, compiler.OptRTElim} {
		checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: opt})
	}
	// Rejected by the message-passing backend, operationally
	// reproducing the paper's "not amenable to purely message-passing
	// approaches".
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Backend: runtime.MessagePassing}); err == nil {
		t.Fatal("message passing accepted the irregular program")
	}
	// The optimizations still pay on the affine part.
	un := checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: compiler.OptNone})
	op := checkApp(t, a, runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim})
	if op.Elapsed >= un.Elapsed {
		t.Fatalf("optimizing the affine part did not help: %d vs %d", op.Elapsed, un.Elapsed)
	}
}
