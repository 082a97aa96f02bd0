// Scale differential tests: the combining-tree topology may only
// change how messages are routed, never what the machine computes. At
// 64 nodes — 8x the paper's machine, where the tree actually earns its
// keep — every application at every optimization level must produce
// final arrays, scalars, and reduction journals bit-identical to the
// flat protocol's.
//
// The invariants are chosen from what topology independence actually
// guarantees: the VALUES the machine computes. Final arrays, every
// scalar, and the whole reduction journal — the one place a topology
// change could leak into the computation, since a different
// combination order shifts low mantissa bits — must match bit-for-bit.
// Timing-derived statistics are deliberately NOT compared flat vs
// tree: the tree changes when invalidations land relative to each
// node's accesses, so a load may find a still-valid copy in one
// topology and miss in the other (returning the same bytes either
// way), and miss counts, message counts, elapsed time, and wire bytes
// all legitimately shift with them.
//
// The tree runs must also be engine-independent: a 4-partition
// conservative-PDES run of the tree topology is compared against the
// sequential tree run on every observable, exactly as the flat PDES
// differential does — elapsed time, every per-node counter, every
// array word.
package hpfdsm_test

import (
	"math"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

const scaleDiffNodes = 64

// runScaleTopo executes one app at scaleDiffNodes under the given
// topology and partition count, audited at every barrier and reduction
// if check is set.
func runScaleTopo(t *testing.T, a *apps.App, opt compiler.Level, topo config.Topology, parts int, check bool) *runtime.Result {
	t.Helper()
	return runApp(t, a, runtime.Options{
		Machine:    config.Default().WithNodes(scaleDiffNodes).WithTopology(topo),
		Opt:        opt,
		Partitions: parts,
		Check:      check,
	})
}

// runApp executes one app at its scaled size with the given options.
func runApp(t *testing.T, a *apps.App, o runtime.Options) *runtime.Result {
	t.Helper()
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Check && res.BarrierChecks == 0 {
		t.Fatal("coherence audits did not run")
	}
	return res
}

func compareArraysBitExact(t *testing.T, a *apps.App, want, got *runtime.Result, label string) {
	t.Helper()
	for _, name := range a.CheckArrays {
		w, g := want.ArrayData(name), got.ArrayData(name)
		if len(w) != len(g) {
			t.Fatalf("%s: array %s length %d vs %d", label, name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: array %s[%d] = %x, want %x (data words must be bit-identical)",
					label, name, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
}

func TestScaleDifferentialFlatVsTree(t *testing.T) {
	levels := []compiler.Level{compiler.OptNone, compiler.OptBulk, compiler.OptRTElim}
	if raceDetectorEnabled {
		// Instrumented 64-node runs are ~10x slower; one level keeps the
		// root package inside the default test timeout. The full matrix
		// runs race-free and in the CI scale job.
		levels = levels[len(levels)-1:]
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, opt := range levels {
				opt := opt
				t.Run(opt.String(), func(t *testing.T) {
					flat := runScaleTopo(t, a, opt, config.Flat, 1, false)
					tree := runScaleTopo(t, a, opt, config.TreeTopo, 1, true)
					compareTreeToFlat(t, a, flat, tree)
				})
			}
		})
	}
}

// compareTreeToFlat demands every value the machine computed — arrays,
// reduction journal, scalars — bit-identical under the two topologies.
func compareTreeToFlat(t *testing.T, a *apps.App, flat, tree *runtime.Result) {
	t.Helper()
	compareArraysBitExact(t, a, flat, tree, "tree vs flat")
	fj, tj := flat.ReduceJournal(), tree.ReduceJournal()
	if len(fj) != len(tj) {
		t.Fatalf("reduction journal: %d entries under tree, %d flat", len(tj), len(fj))
	}
	for i := range fj {
		if math.Float64bits(fj[i]) != math.Float64bits(tj[i]) {
			t.Fatalf("reduction %d = %x under tree, %x flat (canonical fold must be topology-independent)",
				i, math.Float64bits(tj[i]), math.Float64bits(fj[i]))
		}
	}
	for name, fv := range flat.Scalars {
		tv, ok := tree.Scalars[name]
		if !ok {
			t.Fatalf("scalar %s missing under tree", name)
		}
		if math.Float64bits(fv) != math.Float64bits(tv) {
			t.Errorf("scalar %s = %x under tree, %x flat", name, math.Float64bits(tv), math.Float64bits(fv))
		}
	}
}

// TestTreeRaggedShapes runs cg, audited, on two trees whose last
// cluster is short. At these sizes there are invalidation rounds in
// which every leaf of a relayed cluster has upgraded the block itself
// (at 19 nodes, while the home between them takes it), so the relay's
// combined acknowledgement comes back empty — to a directory entry the
// leaves' own flushes have already completed.
func TestTreeRaggedShapes(t *testing.T) {
	cg := apps.CG()
	for _, shape := range []struct{ nodes, radix int }{{19, 4}, {24, 8}} {
		mc := config.Default().WithNodes(shape.nodes).WithRadix(shape.radix)
		flat := runApp(t, cg, runtime.Options{Machine: mc, Opt: compiler.OptRTElim, Check: true})
		tree := runApp(t, cg, runtime.Options{Machine: mc.WithTopology(config.TreeTopo), Opt: compiler.OptRTElim, Check: true})
		compareTreeToFlat(t, cg, flat, tree)
	}
}

func TestScaleTreePDESDifferential(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		if raceDetectorEnabled && a.Name != "jacobi" && a.Name != "cg" {
			// Under the race detector keep the cheapest app plus the one
			// whose reductions feed its arrays; the window coordinator's
			// worker handoffs are identical across apps.
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			seq := runScaleTopo(t, a, compiler.OptRTElim, config.TreeTopo, 1, false)
			par := runScaleTopo(t, a, compiler.OptRTElim, config.TreeTopo, 4, false)
			if par.Elapsed != seq.Elapsed {
				t.Errorf("elapsed %dns under PDES, %dns sequential", par.Elapsed, seq.Elapsed)
			}
			if len(par.Stats.Nodes) != len(seq.Stats.Nodes) {
				t.Fatalf("%d stat nodes under PDES, %d sequential", len(par.Stats.Nodes), len(seq.Stats.Nodes))
			}
			for i := range seq.Stats.Nodes {
				diffNodeStats(t, i, &seq.Stats.Nodes[i], &par.Stats.Nodes[i])
			}
			compareArraysBitExact(t, a, seq, par, "pdes-4 vs sequential (tree)")
		})
	}
}
