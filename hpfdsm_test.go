package hpfdsm_test

import (
	"testing"

	"hpfdsm"
)

const testSource = `
PROGRAM facade
PARAM n = 32
REAL a(n)
SCALAR s
DISTRIBUTE a(BLOCK)
FORALL (i = 1:n)
  a(i) = 2 * i
END FORALL
STARTTIMER
REDUCE (SUM, s, i = 1:n) a(i)
END
`

func TestFacadeRunSource(t *testing.T) {
	res, err := hpfdsm.RunSource(testSource, nil, hpfdsm.Options{
		Machine: hpfdsm.DefaultMachine(),
		Opt:     hpfdsm.OptBulk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(32 * 33); res.Scalars["S"] != want {
		t.Fatalf("sum = %v, want %v", res.Scalars["S"], want)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestFacadeOverrides(t *testing.T) {
	res, err := hpfdsm.RunSource(testSource, map[string]int{"N": 8}, hpfdsm.Options{
		Machine: hpfdsm.DefaultMachine().WithNodes(2),
		Opt:     hpfdsm.OptNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(8 * 9); res.Scalars["S"] != want {
		t.Fatalf("sum = %v, want %v", res.Scalars["S"], want)
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := hpfdsm.Compile("PROGRAM x\nBOGUS\nEND\n", nil); err == nil {
		t.Fatal("bad program accepted")
	}
}

func TestFacadeParseOptLevel(t *testing.T) {
	l, err := hpfdsm.ParseOptLevel("rtelim")
	if err != nil || l != hpfdsm.OptRTElim {
		t.Fatalf("ParseOptLevel = %v, %v", l, err)
	}
}

func TestFacadeApps(t *testing.T) {
	if len(hpfdsm.Apps()) != 6 {
		t.Fatalf("suite has %d apps", len(hpfdsm.Apps()))
	}
	a, err := hpfdsm.AppByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Program(a.ScaledParams)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hpfdsm.Run(prog, hpfdsm.Options{Machine: hpfdsm.DefaultMachine(), Opt: hpfdsm.OptRTElim})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMisses() == 0 {
		t.Fatal("no misses recorded; suspicious")
	}
}

// TestFacadeLoadProgram: the facade's loader lays a PARAM over an
// application's sizing and leaves the rest at that sizing, and parses
// a source with no application.
func TestFacadeLoadProgram(t *testing.T) {
	a, err := hpfdsm.AppByName("shallow")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hpfdsm.LoadProgram("shallow", "", hpfdsm.Scaled, map[string]int{"ITERS": 2})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Param("ITERS") != 2 || prog.Param("N1") != a.ScaledParams["N1"] {
		t.Fatalf("ITERS %d, N1 %d; want 2 and the scaled %d", prog.Param("ITERS"), prog.Param("N1"), a.ScaledParams["N1"])
	}
	if a.ScaledParams["ITERS"] == 2 {
		t.Fatal("the override should differ from the scaled ITERS")
	}
	prog, err = hpfdsm.LoadProgram("", testSource, hpfdsm.Scaled, map[string]int{"N": 8})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "FACADE" || prog.Param("N") != 8 {
		t.Fatalf("program %s with N %d; want FACADE with 8", prog.Name, prog.Param("N"))
	}
}

func TestFacadeMessagePassing(t *testing.T) {
	res, err := hpfdsm.RunSource(testSource, nil, hpfdsm.Options{
		Machine: hpfdsm.DefaultMachine(),
		Backend: hpfdsm.MessagePassing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(32 * 33); res.Scalars["S"] != want {
		t.Fatalf("mp sum = %v", res.Scalars["S"])
	}
}

func TestFacadePrintSource(t *testing.T) {
	prog, err := hpfdsm.Compile(testSource, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := hpfdsm.PrintSource(prog)
	re, err := hpfdsm.Compile(text, nil)
	if err != nil {
		t.Fatalf("reprint does not compile: %v\n%s", err, text)
	}
	res, err := hpfdsm.Run(re, hpfdsm.Options{Machine: hpfdsm.DefaultMachine(), Opt: hpfdsm.OptNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalars["S"] != 32*33 {
		t.Fatalf("reprinted program result %v", res.Scalars["S"])
	}
}
