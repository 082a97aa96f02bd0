package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"hpfdsm/internal/analysis"
	"hpfdsm/internal/apps"
	"hpfdsm/internal/config"
	"hpfdsm/internal/protocol"
)

var updateDiagnostics = flag.Bool("update-diagnostics", false, "rewrite testdata/diagnostics.golden from this run")

// Mutations no other test applies: between them and the named ones of
// contract_test.go every diagnostic that prints a set of blocks is
// reached — blocks never sent, never made writable, never flushed,
// unscheduled, delivered with no frame or in the frame's own phase, and
// a transfer that is not its section's aligned interior.

func dropSends(lc *analysis.LoopCalls) {
	dropOps(lc, func(c analysis.Call, post bool) bool { return c.Op != analysis.OpSend })
}

func dropMkWritable(lc *analysis.LoopCalls) {
	dropOps(lc, func(c analysis.Call, post bool) bool { return c.Op != analysis.OpMkWritable })
}

// sendTwiceOverlapping has every sender repeat its sends one block
// further on, so that the blocks a node is sent overlap and one of them
// is in no transfer.
func sendTwiceOverlapping(lc *analysis.LoopCalls) {
	for n, calls := range lc.Nodes {
		var out []analysis.Call
		for _, c := range calls {
			out = append(out, c)
			if c.Op == analysis.OpSend {
				again := c
				again.Blocks = slices.Clone(c.Blocks)
				for i := range again.Blocks {
					again.Blocks[i].Start++
				}
				out = append(out, again)
			}
		}
		lc.Nodes[n] = out
	}
}

// openFramesLate moves every implicit_writable behind the node's first
// barrier: the phase its data arrives in.
func openFramesLate(lc *analysis.LoopCalls) {
	for n, calls := range lc.Nodes {
		var out, held []analysis.Call
		for _, c := range calls {
			switch {
			case c.Op == analysis.OpImplicitWritable:
				held = append(held, c)
				continue
			case c.Op == analysis.OpBarrier && held != nil:
				out = append(append(out, c), held...)
				held = nil
				continue
			}
			out = append(out, c)
		}
		lc.Nodes[n] = out
	}
}

// shiftTransferBlocks moves the first read transfer one block down and
// splits off an overlapping run, and sends the last one past its array.
func shiftTransferBlocks(lc *analysis.LoopCalls) {
	t := &lc.Reads[0]
	b := t.Blocks[0]
	t.Blocks = []protocol.BlockRun{{Start: b.Start - 1, N: b.N}, {Start: b.Start, N: 1}}
	last := &lc.Reads[len(lc.Reads)-1]
	last.Blocks = []protocol.BlockRun{{Start: 1 << 20, N: 2}}
}

// TestContractDiagnosticsPinned holds the verifier's whole output — the
// full report of every mutation fixture, every race fixture and every
// shipped application at all five levels — to the text the verifier
// printed before its block sets became run lists (PR 21 generated
// testdata/diagnostics.golden at its parent commit). The other tests
// ask whether a rule fires; this one asks whether a diagnostic names the
// same blocks in the same order.
func TestContractDiagnosticsPinned(t *testing.T) {
	var got strings.Builder
	for _, f := range []struct {
		name   string
		loop   int
		mutate func(*analysis.LoopCalls)
	}{
		{"clean-read", 0, func(*analysis.LoopCalls) {}},
		{"clean-write", 1, func(*analysis.LoopCalls) {}},
		{"drop-ready-to-recv", 0, dropReadyToRecv},
		{"drop-flush-side", 1, dropFlushSide},
		{"drop-implicit-writable", 0, dropImplicitWritable},
		{"drop-last-barrier-of-node-0", 0, dropLastBarrierOfNode0},
		{"skip-dead-read", 0, skipDeadRead},
		{"drift-read-matrices", 0, driftReadMatrices},
		{"drop-sends", 0, dropSends},
		{"drop-mk-writable", 1, dropMkWritable},
		{"send-twice-overlapping", 0, sendTwiceOverlapping},
		{"open-frames-late", 0, openFramesLate},
		{"shift-transfer-blocks", 0, shiftTransferBlocks},
	} {
		m, rep, lc := buildFixture(t, f.loop)
		f.mutate(lc)
		m.CheckLoopCalls(lc)
		fmt.Fprintf(&got, "== mutation %s ==\n%s", f.name, rep)
	}
	for _, src := range []string{srcGaussSeidel, srcWWRace, srcColStorm, srcCleanStencil} {
		rep := verifySrc(t, src)
		fmt.Fprintf(&got, "== race %s ==\n%s", rep.Prog, rep)
	}
	for _, a := range apps.All() {
		prog, err := a.Program(a.ScaledParams)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.Verify(prog, config.Default(), analysis.Levels()...)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== app %s ==\n%s", a.Name, rep)
	}

	const golden = "testdata/diagnostics.golden"
	if *updateDiagnostics {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d of the verifier's output moved:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("the verifier printed %d lines, %s holds %d", len(gl), golden, len(wl))
	}
}
