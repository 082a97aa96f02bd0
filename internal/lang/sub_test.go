package lang

import (
	"strings"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/runtime"
)

const subSrc = `
PROGRAM subs
PARAM n = 32
PARAM iters = 3
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)

SUB sweep
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
  END FORALL
END SUB

SUB copyback
  FORALL (i = 2:n-1, j = 2:n-1)
    a(i, j) = b(i, j)
  END FORALL
END SUB

FORALL (i = 1:n, j = 1:n)
  a(i, j) = i + 3*j
  b(i, j) = 0
END FORALL

DO t = 1, iters
  CALL sweep
  CALL copyback
END DO
END
`

func TestSubroutineInlining(t *testing.T) {
	prog, err := Parse(subSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The DO body holds the two inlined loops.
	var do *ir.SeqLoop
	for _, s := range prog.Body {
		if sl, ok := s.(*ir.SeqLoop); ok {
			do = sl
		}
	}
	if do == nil || len(do.Body) != 2 {
		t.Fatalf("DO body = %v", do)
	}
	if _, ok := do.Body[0].(*ir.ParLoop); !ok {
		t.Fatalf("CALL did not inline a single-statement sub: %T", do.Body[0])
	}
}

func TestSubroutineRunsCorrectly(t *testing.T) {
	prog, err := Parse(subSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptRTElim})
	if err != nil {
		t.Fatal(err)
	}
	// i + 3j is harmonic: invariant under the 4-point average.
	a := res.ArrayData("A")
	n := 32
	for j := 2; j <= n-1; j++ {
		for i := 2; i <= n-1; i++ {
			if got, want := a[(j-1)*n+(i-1)], float64(i)+3*float64(j); got != want {
				t.Fatalf("a(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSubroutineCalledTwice(t *testing.T) {
	src := strings.Replace(subSrc, "CALL sweep\n  CALL copyback", "CALL sweep\n  CALL copyback\n  CALL sweep\n  CALL copyback", 1)
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptPRE})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ArrayData("A")[(5-1)*32+(5-1)]; got != 5+3*5 {
		t.Fatalf("value after double call = %v", got)
	}
}

func TestSubroutineMultiStatementBlock(t *testing.T) {
	src := `
PROGRAM multi
PARAM n = 16
REAL a(n)
SCALAR s
DISTRIBUTE a(BLOCK)
SUB work
  FORALL (i = 1:n)
    a(i) = i
  END FORALL
  REDUCE (SUM, s, i = 1:n) a(i)
END SUB
CALL work
END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Body[0].(*ir.Block); !ok {
		t.Fatalf("multi-statement CALL should produce a Block, got %T", prog.Body[0])
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptBulk})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["S"] != 136 {
		t.Fatalf("s = %v", res.Scalars["S"])
	}
}

// subErrors are invalid uses of SUB and CALL.
var subErrors = map[string]string{
	"call before define": "PROGRAM p\nCALL foo\nEND\n",
	"redefined":          "PROGRAM p\nSUB f\nEND SUB\nSUB f\nEND SUB\nEND\n",
	"nested":             "PROGRAM p\nSUB f\nSUB g\nEND SUB\nEND SUB\nEND\n",
	"unclosed":           "PROGRAM p\nSUB f\n",
}

func TestSubroutineErrors(t *testing.T) {
	for name, src := range subErrors {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Error("invalid program accepted")
			}
		})
	}
}
