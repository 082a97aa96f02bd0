package runtime

import (
	"os"
	"path/filepath"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/lang"
)

// auditSrc's second loop writes the first column of each right-hand
// neighbour's slab: node p flushes a column to node p+1.
const auditSrc = `
PROGRAM audit
PARAM n = 64
REAL a(n, n), b(n, n)
DISTRIBUTE a(*, BLOCK)
DISTRIBUTE b(*, BLOCK)
FORALL (i = 1:n, j = 1:n)
  b(i, j) = i + j
END FORALL
FORALL (i = 1:n, j = 1:n-1) ON b(i, j)
  a(i, j+1) = b(i, j)
END FORALL
END
`

// leakyFlush is node 1's sink with one broken flush: the data reaches
// the owner, but the writer keeps its dirty words on the first block.
type leakyFlush struct {
	compiler.Calls
	e    *exec
	done bool
}

func (l *leakyFlush) Flush(t *compiler.Transfer) {
	mem, b := l.e.n.Mem, t.Blocks[0].Start
	mask := mem.Dirty(b)
	l.Calls.Flush(t)
	if !l.done {
		l.done = true
		mem.SetDirtyMask(b, mask)
	}
}

// TestAuditProvenancePinned pins, byte for byte, the text of a
// coherence-audit failure under a verified run: the block, the array,
// the compiler decision that last governed it, and the contract rules
// the static verifier proved for that loop.
//
// A dropped send or flush cannot seed it: with the receiver's count
// adjusted, the directory stays self-consistent and every audit passes
// (the static contract check is what catches those). A flush that leaves
// its writer's dirty words behind is caught at the loop's closing
// barrier, where the owner holds the same words dirty.
func TestAuditProvenancePinned(t *testing.T) {
	defer func() { teeCalls = nil }()
	prog, err := lang.Parse(auditSrc)
	if err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	rep, err := analysis.Verify(prog, mc, compiler.OptBulk)
	if err != nil || rep.HasErrors() {
		t.Fatalf("the fixture does not verify: %v\n%s", err, rep)
	}
	teeCalls = func(node int, live compiler.Calls) compiler.Calls {
		if node != 1 {
			return live
		}
		return &leakyFlush{Calls: live, e: live.(liveCalls).exec}
	}
	_, err = Run(prog, Options{Machine: mc, Opt: compiler.OptBulk, Check: true, Verified: rep})
	if err == nil {
		t.Fatal("the run passed every audit")
	}
	got := err.Error() + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "audit_provenance.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the audit diagnostic moved:\n got  %s want %s", got, want)
	}
}
