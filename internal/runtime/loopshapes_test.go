package runtime

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/sim"
)

// loopShape is one small program exercising one way a loop body can
// walk memory. Every shape shares the same declarations and
// initialisation; body is what the timed DO loop repeats twice.
type loopShape struct {
	name string
	n    int
	dist string // distribution of every array's last dimension
	body string
}

// loopShapes covers what the strip executor distinguishes: how each
// reference's address moves with the innermost index (unit, strided,
// reversed, not at all, further than a block), where rows begin and end
// against block boundaries, what rows are when the innermost index is
// the distributed one, store-to-load order inside and across elements
// (a later statement reading what an earlier one writes in this, an
// earlier and a later iteration; a statement overwriting its own
// operands), and the loops that never form strips.
var loopShapes = []loopShape{
	{"neighbours", 64, "BLOCK", `
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = a(i-1, j) + a(i, j) + a(i+1, j) + a(i, j-1) + a(i, j+1)
  END FORALL
  FORALL (i = 2:n-1, j = 2:n-1)
    a(i, j) = 0.2 * b(i, j)
  END FORALL`},
	{"step2", 64, "BLOCK", `
  FORALL (i = 2:n-1:2, j = 2:n-1)
    c(i, j) = a(i-1, j) + a(i+1, j)
  END FORALL
  FORALL (i = 1:n, j = 2:n-1:2)
    a(i, j) = 0.5 * c(i, j) + b(i, j)
  END FORALL`},
	{"step3", 64, "BLOCK", `
  FORALL (i = 1:n:3, j = 1:n)
    c(i, j) = 2 * a(i, j) + b(i, j)
  END FORALL
  FORALL (i = 3:n:3, j = 2:n-1)
    b(i, j) = c(i-2, j-1) - c(i-2, j+1)
  END FORALL`},
	{"transposed", 32, "BLOCK", `
  FORALL (i = 1:m, j = 1:m, k = 1:m)
    q(i, j, k) = p(j, i, k) + 0.5 * q(i, j, k)
  END FORALL
  FORALL (i = 1:m, j = 1:m, k = 2:m-1)
    p(i, j, k) = q(j, i, k-1) - q(j, i, k+1)
  END FORALL`},
	{"reversed", 64, "BLOCK", `
  FORALL (i = 1:n, j = 1:n)
    c(i, j) = a(n+1-i, j) - b(i, j)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.25 * c(i, j)
  END FORALL`},
	{"stride0", 64, "BLOCK", `
  FORALL (i = 1:n, j = 2:n)
    c(i, j) = a(1, j-1) * b(i, j) + v(j)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.001 * c(i, j)
  END FORALL`},
	{"vector-block", 200, "BLOCK", `
  FORALL (i = 2:n-1)
    w(i) = v(i-1) + 2 * v(i) + v(i+1)
  END FORALL
  FORALL (i = 2:n-1:3)
    v(i) = 0.25 * w(i)
  END FORALL`},
	{"vector-cyclic", 200, "CYCLIC", `
  FORALL (i = 2:n-1)
    w(i) = v(i-1) + 2 * v(i) + v(i+1)
  END FORALL
  FORALL (i = 2:n-1:3)
    v(i) = 0.25 * w(i)
  END FORALL`},
	{"n50", 50, "BLOCK", `
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.25 * b(i, j)
  END FORALL`},
	{"n50-cyclic", 50, "CYCLIC", `
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.25 * b(i, j)
  END FORALL`},
	{"store-then-load", 64, "BLOCK", `
  FORALL (i = 2:n-1, j = 1:n)
    b(i, j) = 0.5 * a(i, j)
    c(i, j) = b(i, j) + b(i-1, j) + b(i+1, j)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.5 * c(i, j)
  END FORALL`},
	{"load-ahead-of-store", 64, "BLOCK", `
  FORALL (i = 2:n-3, j = 1:n)
    b(i, j) = 0.5 * a(i, j) + j
    c(i, j) = b(i+1, j) - b(i+3, j)
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = 0.5 * c(i, j) + 0.25 * b(i, j)
  END FORALL`},
	{"in-place", 64, "BLOCK", `
  FORALL (i = 2:n-1, j = 1:n)
    a(i, j) = 0.5 * (a(i-1, j) + a(i+1, j))
  END FORALL
  FORALL (i = 3:n:2, j = 1:n)
    b(i, j) = b(i-2, j) + a(i, j)
  END FORALL`},
	{"store-over-fixed-load", 64, "BLOCK", `
  FORALL (i = 1:n, j = 1:n)
    b(i, j) = b(1, j) + a(i, j)
  END FORALL
  FORALL (i = 2:n, j = 1:n)
    a(i, j) = 0.5 * a(1, j) + 0.001 * b(i, j)
  END FORALL`},
	{"two-strides", 64, "BLOCK", `
  FORALL (i = 1:32, j = 1:n)
    a(2*i, j) = a(i, j) + 1
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    b(i, j) = 0.5 * a(i, j)
  END FORALL`},
	{"intrinsics", 48, "BLOCK", `
  FORALL (i = 1:n, j = 1:n)
    c(i, j) = SQRT(a(i, j)) + MIN(i, ABS(b(i, j))) + j
  END FORALL
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = MAX(c(i, j), n) / 3 + MOD(i, 5)
  END FORALL`},
	{"reductions", 64, "BLOCK", `
  REDUCE (SUM, s, i = 1:n, j = 1:n) a(i, j) * b(i, j)
  REDUCE (MAX, mx, i = 2:n-1, j = 1:n) a(i-1, j) - a(i+1, j)
  LET s = s / (n * n)
  FORALL (i = 1:n, j = 1:n)
    a(i, j) = a(i, j) + 0.001 * s + mx
  END FORALL`},
	{"inner-reduction", 32, "BLOCK", `
  FORALL (j = 1:n)
    w(j) = SUM(i = 1:n, a(i, j) * v(i))
  END FORALL
  FORALL (i = 1:n)
    v(i) = 0.001 * w(i)
  END FORALL`},
	{"indirect", 64, "BLOCK", `
  FORALL (i = 1:n)
    w(i) = v(ix(i)) + a(ix(i), i)
  END FORALL
  FORALL (i = 1:n)
    v(i) = 0.5 * w(i)
  END FORALL`},
}

func (s loopShape) source() string {
	return strings.NewReplacer("<N>", fmt.Sprint(s.n), "<D>", s.dist, "<BODY>", s.body).Replace(`
PROGRAM shape
PARAM n = <N>
PARAM m = 20
REAL a(n, n), b(n, n), c(n, n), v(n), w(n), ix(n), p(m, m, m), q(m, m, m)
SCALAR s, mx
DISTRIBUTE a(*, <D>)
DISTRIBUTE b(*, <D>)
DISTRIBUTE c(*, <D>)
DISTRIBUTE v(<D>)
DISTRIBUTE w(<D>)
DISTRIBUTE ix(<D>)
DISTRIBUTE p(*, *, <D>)
DISTRIBUTE q(*, *, <D>)
FORALL (i = 1:n, j = 1:n)
  a(i, j) = i + 3*j
  b(i, j) = 0.5*i - j
  c(i, j) = 0
END FORALL
FORALL (i = 1:n)
  v(i) = 2*i + 1
  w(i) = 0
  ix(i) = 1 + MOD(7*i + 3, n)
END FORALL
FORALL (i = 1:m, j = 1:m, k = 1:m)
  p(i, j, k) = i + 2*j + 3*k
  q(i, j, k) = i - k
END FORALL
STARTTIMER
DO t = 1, 2<BODY>
END DO
END
`)
}

func (s loopShape) program(t testing.TB) *ir.Program {
	t.Helper()
	prog, err := lang.Parse(s.source())
	if err != nil {
		t.Fatalf("shape %s: %v", s.name, err)
	}
	return prog
}

// shapeMachines are the four machines every shape runs on.
var shapeMachines = []struct {
	name string
	mc   config.Machine
	mp   bool
}{
	{"n8b128", config.Default(), false},
	{"n5b32", config.Default().WithNodes(5).WithBlockSize(32), false},
	{"single", config.Default().WithCPUMode(config.SingleCPU), false},
	{"mp", config.Default(), true},
}

// fnvFloats folds the bit patterns of vals into h.
func fnvFloats(h io.Writer, vals []float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// pinLine renders everything a run pins: simulated time, the miss,
// message and byte counts, the compute time summed over nodes, and a
// hash of every array's and every reduction's bits.
func pinLine(res *Result) string {
	var rm, wm, um int64
	var compute sim.Time
	for i := range res.Stats.Nodes {
		st := &res.Stats.Nodes[i]
		rm += st.ReadMisses
		wm += st.WriteMisses
		um += st.UpgradeMisses
		compute += st.ComputeTime
	}
	ah, jh := fnv.New64a(), fnv.New64a()
	for _, arr := range res.Prog.Arrays {
		fnvFloats(ah, res.ArrayData(arr.Name))
	}
	fnvFloats(jh, res.ReduceJournal())
	return fmt.Sprintf("elapsed=%d rm=%d wm=%d um=%d msgs=%d bytes=%d compute=%d arrays=%016x journal=%016x",
		res.Elapsed, rm, wm, um, res.Stats.TotalMessages(), res.Stats.TotalBytes(), compute, ah.Sum64(), jh.Sum64())
}

var updateShapes = flag.Bool("update-shapes", false, "rewrite testdata/loopshapes.golden from this run")

const shapesGolden = "testdata/loopshapes.golden"

// TestLoopShapesPinned holds the loop executor to the table captured at
// the commit before the strip executor replaced the closure tree: every
// shape at two levels on four machines, one line a run.
func TestLoopShapesPinned(t *testing.T) {
	var got strings.Builder
	for _, s := range loopShapes {
		for _, lv := range []compiler.Level{compiler.OptNone, compiler.OptRTElim} {
			for _, m := range shapeMachines {
				prog := s.program(t)
				opt := Options{Machine: m.mc, Opt: lv}
				if m.mp {
					if ir.HasIndirect(prog) {
						continue
					}
					opt.Backend = MessagePassing
				}
				res, err := Run(prog, opt)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", s.name, lv, m.name, err)
				}
				fmt.Fprintf(&got, "%s/%v/%s: %s\n", s.name, lv, m.name, pinLine(res))
			}
		}
	}
	if *updateShapes {
		if err := os.WriteFile(shapesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shapesGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
