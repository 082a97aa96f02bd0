package network_test

import (
	"math"
	"reflect"
	"testing"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/network"
	"hpfdsm/internal/runtime"
)

// stridedFlush has a non-owner write on odd rows only: node k writes
// b(i, j+1) into node k+1's first column, so at OptBulk it takes those
// blocks writable with a multi-block mk_writable response, leaves the
// even rows as the response brought them, and flushes whole blocks
// back: the response's payload reaches the final array.
const stridedFlush = `
PROGRAM flush
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 1:n, j = 1:n)
  a(i, j) = i + j
  b(i, j) = i - j
END FORALL
STARTTIMER
DO t = 1, 3
  FORALL (i = 1:n:2, j = 1:n-1) ON a(i, j)
    a(i, j) = a(i, j) + 1
    b(i, j+1) = 2 * a(i, j)
  END FORALL
END DO
END
`

// TestPoisonedPayloadsMatch runs whole programs with every network
// quarantined, so each reclaimed message and payload is poisoned and
// never reused, and demands each run bit-identical to the plain one. A
// handler that read a payload after its message went back to the pool,
// or a payload reclaimed while still referenced, shows as a poisoned
// value or a panic.
func TestPoisonedPayloadsMatch(t *testing.T) {
	for _, tc := range poisonCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runtime.Run(tc.prog, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			reclaimed, stop := network.QuarantineNew()
			got, err := runtime.Run(tc.prog, tc.opts)
			stop()
			if err != nil {
				t.Fatal(err)
			}
			if reclaimed() == 0 {
				t.Fatal("the quarantine reclaimed nothing")
			}
			sameRun(t, "poisoned", got, want, tc.arrays)
		})
	}
}

// TestPoisonedPoolsMatch runs whole programs on pools a finished run
// left poisoned in the keep, and demands each run bit-identical to one
// on fresh pools, as a fresh process makes them. A message handed out
// with a field of its last use, a payload byte read before it was
// written, or an in-flight count carried over from the run that
// released the pool shows as a difference or a panic; the crash case's
// checkpoints are taken only when that count reads zero.
func TestPoisonedPoolsMatch(t *testing.T) {
	cases := append(poisonCases(t), poisonCase{
		"crash-recovery", appProg(t, apps.Jacobi()),
		runtime.Options{Machine: config.Default().WithFaults(config.Faults{Crashes: []config.CrashSpec{{Node: 2, Epoch: 5}}}), Opt: compiler.OptRTElim},
		apps.Jacobi().CheckArrays,
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := network.FreshPools()
			want, err := runtime.Run(tc.prog, tc.opts)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			stop := network.PoisonReleased()
			_, err = runtime.Run(tc.prog, tc.opts) // grows the pools, then poisons them
			stop()
			if err != nil {
				t.Fatal(err)
			}
			got, err := runtime.Run(tc.prog, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "run on poisoned pools", got, want, tc.arrays)
		})
	}
}

// poisonCase is one whole program the poisoned runs compare.
type poisonCase struct {
	name   string
	prog   *ir.Program
	opts   runtime.Options
	arrays []string
}

// poisonCases are the runs that take the payloads the pool supplies
// beyond single blocks: message-passing chunks, tree reduction
// up-vectors, and multi-block mk_writable responses (a non-owner write
// at OptBulk with the coalescer off; no shipped app takes that path at
// scaled size).
func poisonCases(t *testing.T) []poisonCase {
	flush, err := lang.Parse(stridedFlush)
	if err != nil {
		t.Fatal(err)
	}
	tree := config.Default().WithNodes(16).WithTopology(config.TreeTopo).WithRadix(4)
	return []poisonCase{
		{"mp-jacobi", appProg(t, apps.Jacobi()), runtime.Options{Machine: config.Default(), Backend: runtime.MessagePassing}, apps.Jacobi().CheckArrays},
		{"tree-cg", appProg(t, apps.CG()), runtime.Options{Machine: tree, Opt: compiler.OptRTElim}, apps.CG().CheckArrays},
		{"bulk-noagg-flush", flush, runtime.Options{Machine: config.Default().WithNodes(4).WithoutCoalesce(), Opt: compiler.OptBulk}, []string{"A", "B"}},
	}
}

// appProg is an application's program at its scaled size.
func appProg(t *testing.T, a *apps.App) *ir.Program {
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// sameRun fails t unless got and want agree bit for bit: elapsed time,
// every statistic, the reduction journal and the named arrays.
func sameRun(t *testing.T, what string, got, want *runtime.Result, arrays []string) {
	t.Helper()
	if got.Elapsed != want.Elapsed || !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: elapsed %d, %d msgs; plain run: elapsed %d, %d msgs",
			what, got.Elapsed, got.Stats.TotalMessages(), want.Elapsed, want.Stats.TotalMessages())
	}
	if !reflect.DeepEqual(got.ReduceJournal(), want.ReduceJournal()) {
		t.Fatalf("%s reduced %v, plain run %v", what, got.ReduceJournal(), want.ReduceJournal())
	}
	for _, name := range arrays {
		g, w := got.ArrayData(name), want.ArrayData(name)
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s[%d] = %v in the %s, %v plain", name, k, g[k], what, w[k])
			}
		}
	}
}
