package analysis_test

import (
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
)

func verifySrc(t *testing.T, src string) *analysis.Report {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Verify(prog, config.Default(), analysis.Levels()...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The race fixtures; TestContractDiagnosticsPinned verifies the same
// sources.
const (
	srcGaussSeidel = `
PROGRAM gaussseidel
PARAM n = 64
REAL a(n, n)
DISTRIBUTE a(*, BLOCK)
FORALL (i = 1:n, j = 1:n-1)
  a(i, j) = a(i, j+1)
END FORALL
END
`
	srcWWRace = `
PROGRAM wwrace
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 1:n, j = 1:n-1)
  a(i, j) = b(i, j)
  a(i, j+1) = b(i, j)
END FORALL
END
`
	srcColStorm = `
PROGRAM colstorm
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 1:n, j = 1:n) ON b(i, j)
  a(i, 1) = b(i, j)
END FORALL
END
`
	srcCleanStencil = `
PROGRAM clean
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
DO t = 1, 3
  FORALL (i = 2:n-1, j = 2:n-1)
    b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
  END FORALL
  FORALL (i = 2:n-1, j = 2:n-1)
    a(i, j) = b(i, j)
  END FORALL
END DO
END
`
)

// countRule counts diagnostics of a rule at a severity.
func countRule(rep *analysis.Report, rule string, sev analysis.Severity) int {
	n := 0
	for _, d := range rep.Diags {
		if d.Rule == rule && d.Severity == sev {
			n++
		}
	}
	return n
}

// TestRaceReadWriteOverlap: an in-place sweep reads its own output
// array at a shifted subscript — iterations are not independent and no
// barrier separates them.
func TestRaceReadWriteOverlap(t *testing.T) {
	rep := verifySrc(t, srcGaussSeidel)
	if countRule(rep, analysis.RuleRaceRW, analysis.Error) == 0 {
		t.Fatalf("in-place shifted sweep not flagged:\n%s", rep)
	}
	var hit bool
	for _, d := range rep.Diags {
		if d.Rule == analysis.RuleRaceRW && d.Severity == analysis.Error {
			if d.Site.Array != "A" || d.Site.Sec == "" || d.Site.Loop == "" {
				t.Fatalf("race diagnostic lacks provenance: %v", d)
			}
			hit = true
		}
	}
	if !hit {
		t.Fatal("no read-write race diagnostic")
	}
	// The schedules themselves honor the communication contract — the
	// bug is in the program, not the compiler.
	for _, d := range rep.Diags {
		if d.Severity == analysis.Error && d.Rule != analysis.RuleRaceRW {
			t.Fatalf("unexpected extra error: %v", d)
		}
	}
}

// TestRaceWriteWriteOverlap: two statements writing overlapping
// sections of the same array in one parallel loop.
func TestRaceWriteWriteOverlap(t *testing.T) {
	rep := verifySrc(t, srcWWRace)
	if countRule(rep, analysis.RuleRaceWrite, analysis.Error) == 0 {
		t.Fatalf("overlapping writers not flagged:\n%s", rep)
	}
}

// TestRaceWriteIgnoresDistVar: a write whose subscripts do not involve
// the distributed loop variable is stormed by every executing
// processor.
func TestRaceWriteIgnoresDistVar(t *testing.T) {
	rep := verifySrc(t, srcColStorm)
	if countRule(rep, analysis.RuleRaceWrite, analysis.Error) == 0 {
		t.Fatalf("distvar-free write not flagged:\n%s", rep)
	}
}

// TestRaceCleanTwoArraySweep: the textbook two-array stencil has no
// races and no contract errors at any level.
func TestRaceCleanTwoArraySweep(t *testing.T) {
	rep := verifySrc(t, srcCleanStencil)
	if rep.HasErrors() {
		t.Fatalf("clean stencil flagged:\n%s", rep)
	}
}
