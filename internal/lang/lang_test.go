package lang

import (
	"fmt"
	"strings"
	"testing"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/distribute"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/runtime"
)

const jacobiSrc = `
PROGRAM jacobi
PARAM n = 32
PARAM iters = 3
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)

FORALL (i = 1:n, j = 1:n)
  a(i, j) = i + 3*j   ! initial values
  b(i, j) = 0
END FORALL

DO t = 1, iters
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
  END FORALL
  FORALL (i = 2:n-1, j = 2:n-1)
    a(i, j) = b(i, j)
  END FORALL
END DO
END
`

func TestParseJacobi(t *testing.T) {
	prog, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "JACOBI" {
		t.Fatalf("name = %q", prog.Name)
	}
	if prog.Param("N") != 32 || prog.Param("ITERS") != 3 {
		t.Fatal("params wrong")
	}
	if len(prog.Arrays) != 2 || prog.Arrays[0].Name != "A" || prog.Arrays[0].Dist.Kind != distribute.Block {
		t.Fatalf("arrays = %v", prog.Arrays)
	}
	if len(prog.Body) != 2 {
		t.Fatalf("body stmts = %d", len(prog.Body))
	}
	init, ok := prog.Body[0].(*ir.ParLoop)
	if !ok || len(init.Body) != 2 {
		t.Fatalf("first stmt = %T", prog.Body[0])
	}
	loop, ok := prog.Body[1].(*ir.SeqLoop)
	if !ok || len(loop.Body) != 2 {
		t.Fatalf("second stmt = %T", prog.Body[1])
	}
}

func TestParsedJacobiRunsCorrectly(t *testing.T) {
	prog, err := Parse(jacobiSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptBulk})
	if err != nil {
		t.Fatal(err)
	}
	// Spot check against a tiny hand evaluation: after 3 sweeps the
	// interior still equals the harmonic-free init (i + 3j is a
	// discrete harmonic function: the 4-point average reproduces it).
	a := res.ArrayData("A")
	n := 32
	for j := 2; j <= n-1; j++ {
		for i := 2; i <= n-1; i++ {
			want := float64(i) + 3*float64(j)
			if got := a[(j-1)*n+(i-1)]; got != want {
				t.Fatalf("a(%d,%d) = %v, want %v (harmonic invariance)", i, j, got, want)
			}
		}
	}
}

func TestParamOverride(t *testing.T) {
	prog, err := ParseWithOverrides(jacobiSrc, map[string]int{"N": 16})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Param("N") != 16 {
		t.Fatal("override ignored")
	}
	if prog.Arrays[0].Extents[0] != 16 {
		t.Fatal("extent did not track override")
	}
}

func TestParseReductionAndControl(t *testing.T) {
	src := `
PROGRAM red
PARAM n = 16
REAL a(n)
SCALAR s, err
DISTRIBUTE a(BLOCK)
FORALL (i = 1:n)
  a(i) = i
END FORALL
DO t = 1, 50
  REDUCE (SUM, s, i = 1:n) a(i)*a(i)
  LET err = SQRT(s)
  EXITIF err > 10.0
END DO
END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default(), Opt: compiler.OptNone})
	if err != nil {
		t.Fatal(err)
	}
	// sum i^2, i=1..16 = 1496; sqrt = 38.7 > 10 -> exits on first pass.
	if res.Scalars["S"] != 1496 {
		t.Fatalf("s = %v", res.Scalars["S"])
	}
}

func TestParseInnerReduction(t *testing.T) {
	src := `
PROGRAM mv
PARAM n = 8
REAL a(n, n), x(n), y(n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE x(BLOCK)
DISTRIBUTE y(BLOCK)
FORALL (i = 1:n, j = 1:n)
  a(i, j) = 1
END FORALL
FORALL (i = 1:n)
  x(i) = 2
END FORALL
FORALL (j = 1:n)
  y(j) = SUM(i = 1:n, a(i, j) * x(i))
END FORALL
END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(prog, runtime.Options{Machine: config.Default().WithNodes(4), Opt: compiler.OptBulk})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.ArrayData("Y") {
		if v != 16 { // 8 * 2
			t.Fatalf("y[%d] = %v, want 16", i, v)
		}
	}
}

func TestParseStride(t *testing.T) {
	src := `
PROGRAM rb
PARAM n = 8
REAL a(n, n)
DISTRIBUTE a(*, BLOCK)
FORALL (i = 1:n, j = 1:n:2)
  a(i, j) = 1
END FORALL
END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := prog.Body[0].(*ir.ParLoop)
	if pl.Indexes[1].Step != 2 {
		t.Fatalf("step = %d", pl.Indexes[1].Step)
	}
}

func TestParseCyclicAndBlockCyclic(t *testing.T) {
	src := `
PROGRAM d
PARAM n = 8
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, CYCLIC)
DISTRIBUTE b(*, CYCLIC(2))
END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Arrays[0].Dist.Kind != distribute.Cyclic {
		t.Fatal("cyclic not parsed")
	}
	if prog.Arrays[1].Dist.Kind != distribute.BlockCyclic || prog.Arrays[1].Dist.K != 2 {
		t.Fatal("cyclic(k) not parsed")
	}
}

// A CYCLIC(k) chunk under 1, or one no int holds, is refused at its
// line: CYCLIC(0) used to panic in the distribution, and an overflowing
// k became MaxInt and ran the ownership arithmetic out of memory.
func TestBlockCyclicChunk(t *testing.T) {
	for _, c := range []struct {
		k    string
		want string // the error; "" to parse with K = k
	}{
		{"1", ""},
		{"9223372036854775807", ""},
		{"0", "line 4: CYCLIC(0): the chunk size must be at least 1"},
		{"00", "line 4: CYCLIC(00): the chunk size must be at least 1"},
		{"9223372036854775808", "line 4: CYCLIC(9223372036854775808): the chunk size is out of range"},
		{"99999999999999999999", "line 4: CYCLIC(99999999999999999999): the chunk size is out of range"},
	} {
		src := "PROGRAM p\nPARAM n = 8\nREAL a(n, n)\nDISTRIBUTE a(*, CYCLIC(" + c.k + "))\nEND\n"
		prog, err := Parse(src)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("CYCLIC(%s): %v", c.k, err)
		case c.want == "" && fmt.Sprint(prog.Arrays[0].Dist.K) != c.k:
			t.Errorf("CYCLIC(%s) parsed as K = %d", c.k, prog.Arrays[0].Dist.K)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("CYCLIC(%s): error %v, want %q", c.k, err, c.want)
		}
	}
}

// An integer literal no int holds is refused at its line wherever the
// parser converts one: it used to read as MaxInt.
func TestIntegerLiteralRange(t *testing.T) {
	const big = "99999999999999999999"
	for _, c := range []struct{ src, want string }{
		{"PROGRAM p\nPARAM n = " + big + "\nEND\n", "line 2: PARAM N = " + big + ": the value is out of range"},
		{"PROGRAM p\nPARAM n = -" + big + "\nEND\n", "line 2: PARAM N = " + big + ": the value is out of range"},
		{"PROGRAM p\nPARAM n = 8\nREAL a(n)\nFORALL (i = 1:n:" + big + ")\n a(i) = 0\nEND FORALL\nEND\n", "line 4: step " + big + " is out of range"},
		{"PROGRAM p\nPARAM n = 8\nREAL a(n)\nFORALL (i = 1:n+" + big + ")\n a(i) = 0\nEND FORALL\nEND\n", "line 4: integer " + big + " is out of range"},
		{"PROGRAM p\nPARAM n = 8\nREAL a(n)\nFORALL (i = 1:" + big + "*n)\n a(i) = 0\nEND FORALL\nEND\n", "line 4: integer " + big + " is out of range"},
		{"PROGRAM p\nPARAM n = 8\nREAL a(n)\nFORALL (i = 1:n*" + big + ")\n a(i) = 0\nEND FORALL\nEND\n", "line 4: coefficient " + big + " is out of range"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %q", c.src, err, c.want)
		}
	}
}

// Overrides match PARAMs case-insensitively, and one naming no PARAM
// is refused with the program's own list rather than ignored.
func TestParamOverrideNames(t *testing.T) {
	prog, err := ParseWithOverrides(jacobiSrc, map[string]int{"n": 16, "Iters": 2})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Param("N") != 16 || prog.Param("ITERS") != 2 {
		t.Fatalf("lower- and mixed-case overrides gave N=%d ITERS=%d, want 16 and 2", prog.Param("N"), prog.Param("ITERS"))
	}
	for _, c := range []struct {
		overrides map[string]int
		want      string
	}{
		{map[string]int{"ZZ": 3}, "no PARAM ZZ to override: program JACOBI declares ITERS, N"},
		{map[string]int{"N": 16, "zz": 3, "Yy": 1}, "no PARAM YY, ZZ to override"},
		{map[string]int{"n": 16, "N": 8}, "PARAM N overridden twice"},
	} {
		if _, err := ParseWithOverrides(jacobiSrc, c.overrides); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("overrides %v: error %v, want one containing %q", c.overrides, err, c.want)
		}
	}
}

// An array over ir.MaxArrayBytes is refused where it is declared, with
// its line — also when extents x 8 would overflow int.
func TestArrayByteCeiling(t *testing.T) {
	for _, c := range []struct {
		decl string
		ok   bool
	}{
		{"REAL a(131072, 1048576)", true}, // exactly 1<<40 bytes
		{"REAL a(131073, 1048576)", false},
		{"REAL a(n, n)", false}, // n = 999999999: 8e18 bytes, still an int
		{"REAL a(n, n, n)", false},
		{"REAL a(4), b(n, n)", false},
		{"REAL a(4294967296, 4294967296)", false},
	} {
		src := "PROGRAM p\nPARAM n = 999999999\n" + c.decl + "\nEND\n"
		_, err := Parse(src)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.decl, err)
		case !c.ok && (err == nil || !strings.HasPrefix(err.Error(), "line 3: array ") || !strings.Contains(err.Error(), "holds more than 1099511627776 bytes")):
			t.Errorf("%s: error %v, want the line and the ceiling", c.decl, err)
		}
	}
}

// parseErrors are invalid sources whose errors carry a line (all but
// "bad char").
var parseErrors = map[string]string{
	"no program":           "PARAM n = 4\nEND\n",
	"unknown statement":    "PROGRAM p\nFROB x\nEND\n",
	"undeclared array":     "PROGRAM p\nDISTRIBUTE a(BLOCK)\nEND\n",
	"bad distribute rank":  "PROGRAM p\nPARAM n = 4\nREAL a(n)\nDISTRIBUTE a(*, BLOCK)\nEND\n",
	"distribute inner dim": "PROGRAM p\nPARAM n = 4\nREAL a(n, n)\nDISTRIBUTE a(BLOCK, *)\nEND\n",
	"subscript rank":       "PROGRAM p\nPARAM n = 4\nREAL a(n, n)\nFORALL (i = 1:n)\n a(i) = 0\nEND FORALL\nEND\n",
	"unknown ident":        "PROGRAM p\nPARAM n = 4\nREAL a(n)\nFORALL (i = 1:n)\n a(i) = zz\nEND FORALL\nEND\n",
	"missing end":          "PROGRAM p\nPARAM n = 4\n",
	"array in LET":         "PROGRAM p\nPARAM n = 4\nREAL a(n)\nSCALAR s\nLET s = a(1)\nEND\n",
	"shadowed index":       "PROGRAM p\nPARAM n = 4\nREAL a(n)\nDO i = 1, 2\nFORALL (i = 1:n)\n a(i) = 0\nEND FORALL\nEND DO\nEND\n",
	"nonconst extent":      "PROGRAM p\nREAL a(m)\nEND\n",
	"bad char":             "PROGRAM p\nPARAM n = 4 @\nEND\n",
}

func TestParseErrors(t *testing.T) {
	for name, src := range parseErrors {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Errorf("accepted invalid program")
			} else if !strings.Contains(err.Error(), "line") && name != "bad char" {
				t.Errorf("error lacks line info: %v", err)
			}
		})
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1.0E-6 3e4 .5")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{tInt, tFloat, tFloat, tFloat, tFloat, tNL, tEOF}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d = %v %q, want %v", i, toks[i].kind, toks[i].text, k)
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lex("a = 1 ! comment with ( weird ) stuff\nb = 2")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tok := range toks {
		if tok.kind == tIdent {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("identifiers = %d, want 2", count)
	}
}

// moreParseErrors are further invalid sources.
var moreParseErrors = map[string]string{
	"bad reduce op":      "PROGRAM p\nPARAM n = 4\nREAL a(n)\nSCALAR s\nREDUCE (PROD, s, i = 1:n) a(i)\nEND\n",
	"reduce no scalar":   "PROGRAM p\nPARAM n = 4\nREAL a(n)\nREDUCE (SUM, s, i = 1:n) a(i)\nEND\n",
	"reduce no index":    "PROGRAM p\nPARAM n = 4\nREAL a(n)\nSCALAR s\nREDUCE (SUM, s) a(1)\nEND\n",
	"let no scalar":      "PROGRAM p\nLET x = 1\nEND\n",
	"exitif no cmp":      "PROGRAM p\nSCALAR s\nEXITIF s + 1\nEND\n",
	"exitif array":       "PROGRAM p\nPARAM n = 4\nREAL a(n)\nSCALAR s\nEXITIF a(1) < s\nEND\n",
	"bad step":           "PROGRAM p\nPARAM n = 4\nREAL a(n)\nFORALL (i = 1:n:0)\n a(i) = 0\nEND FORALL\nEND\n",
	"negative extent":    "PROGRAM p\nPARAM n = -4\nREAL a(n)\nEND\n",
	"empty forall":       "PROGRAM p\nPARAM n = 4\nFORALL (i = 1:n)\nEND FORALL\nEND\n",
	"intrinsic arity":    "PROGRAM p\nPARAM n = 4\nREAL a(n)\nFORALL (i = 1:n)\n a(i) = SQRT(1, 2)\nEND FORALL\nEND\n",
	"redeclared array":   "PROGRAM p\nPARAM n = 4\nREAL a(n)\nREAL a(n)\nEND\n",
	"inner shadows":      "PROGRAM p\nPARAM n = 4\nREAL a(n)\nFORALL (i = 1:n)\n a(i) = SUM(i = 1:n, a(i))\nEND FORALL\nEND\n",
	"on home undeclared": "PROGRAM p\nPARAM n = 4\nREAL a(n)\nFORALL (i = 1:n) ON b(i)\n a(i) = 0\nEND FORALL\nEND\n",
	"unexpected eof":     "PROGRAM p\nDO t = 1, 3\n",
}

func TestMoreParseErrors(t *testing.T) {
	for name, src := range moreParseErrors {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Error("invalid program accepted")
			}
		})
	}
}

func TestExitIfVariants(t *testing.T) {
	for _, cmp := range []string{"<", "<=", ">", ">="} {
		src := "PROGRAM p\nSCALAR s\nDO t = 1, 3\nLET s = s + 1\nEXITIF s " + cmp + " 2\nEND DO\nEND\n"
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", cmp, err)
		}
		if _, err := runtime.Run(prog, runtime.Options{Machine: config.Default().WithNodes(2)}); err != nil {
			t.Fatalf("%s: %v", cmp, err)
		}
	}
}
