// Crash-recovery differential tests: every application, at every
// optimization level, with K=1 and K=2 crash-stop node failures
// injected at distinct barrier epochs, must produce final arrays
// bit-identical to the fault-free run of the same configuration. The
// failure path — detection, barrier-consistent rollback, checkpoint
// restore on a replacement node, and ghost replay up to the checkpoint
// epoch — must be completely invisible in the data, with the
// barrier-instant coherence audit armed the whole way.
package hpfdsm_test

import (
	"math"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

func TestCrashRecoveryDifferential(t *testing.T) {
	crashRecoveryDifferential(t, config.Default(),
		[]compiler.Level{compiler.OptNone, compiler.OptBulk, compiler.OptRTElim, compiler.OptPRE},
		[]crashGrid{
			{"k1", []config.CrashSpec{{Node: 2, Epoch: 3}}},
			{"k2", []config.CrashSpec{{Node: 2, Epoch: 3}, {Node: 1, Epoch: 6}}},
		})
}

// TestCrashRecoveryDifferentialTree is the tree column: sixteen nodes on
// the radix-4 combining tree, losing first an interior node of it (1,
// the parent of 5..8) and then a leaf (11). Recovery rebuilds the whole
// machine, so no barrier ever has to route around the dead node and
// every node's round generation restarts with its neighbours'.
func TestCrashRecoveryDifferentialTree(t *testing.T) {
	crashRecoveryDifferential(t, config.Default().WithNodes(16).WithTopology(config.TreeTopo).WithRadix(4),
		[]compiler.Level{compiler.OptNone, compiler.OptRTElim},
		[]crashGrid{
			{"interior+leaf", []config.CrashSpec{{Node: 1, Epoch: 3}, {Node: 11, Epoch: 6}}},
		})
}

type crashGrid struct {
	name    string
	crashes []config.CrashSpec
}

func crashRecoveryDifferential(t *testing.T, machine config.Machine, levels []compiler.Level, grids []crashGrid) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog, err := a.Program(a.ScaledParams)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range levels {
				opt := opt
				t.Run(opt.String(), func(t *testing.T) {
					ref, err := runtime.Run(prog, runtime.Options{
						Machine: machine, Opt: opt, Check: true})
					if err != nil {
						t.Fatal(err)
					}
					want := map[string][]float64{}
					for _, name := range a.CheckArrays {
						want[name] = ref.ArrayData(name)
					}
					for _, g := range grids {
						g := g
						t.Run(g.name, func(t *testing.T) {
							mc := machine.WithFaults(config.Faults{Crashes: g.crashes})
							res, err := runtime.Run(prog, runtime.Options{
								Machine: mc, Opt: opt, Check: true})
							if err != nil {
								t.Fatal(err)
							}
							if int(res.Recoveries) != len(g.crashes) {
								t.Fatalf("%d recoveries for %d configured crash(es)",
									res.Recoveries, len(g.crashes))
							}
							if res.BarrierChecks == 0 {
								t.Fatal("coherence audits did not run")
							}
							for _, name := range a.CheckArrays {
								got := res.ArrayData(name)
								for i := range want[name] {
									if got[i] != want[name][i] {
										t.Fatalf("array %s[%d] = %x after %s recovery, fault-free %x (must be bit-identical)",
											name, i, math.Float64bits(got[i]), g.name,
											math.Float64bits(want[name][i]))
									}
								}
							}
						})
					}
				})
			}
		})
	}
}
