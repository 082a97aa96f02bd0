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
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/protocol"
)

var updateDiagnostics = flag.Bool("update-diagnostics", false, "rewrite testdata/diagnostics.golden from this run")

// Mutations no other test applies: between them and the named ones of
// contract_test.go every diagnostic that prints a set of blocks is
// reached — blocks never sent, never made writable, never flushed,
// unscheduled, delivered with no frame or in the frame's own phase, and
// a transfer that is not its section's aligned interior.

var (
	dropSends      = dropping("send")
	dropMkWritable = dropping("mk_writable")
)

// sendTwice repeats every send one block further on.
type sendTwice struct{ compiler.Calls }

func (s sendTwice) Send(t *compiler.Transfer) {
	s.Calls.Send(t)
	again := *t
	again.Blocks = slices.Clone(t.Blocks)
	for i := range again.Blocks {
		again.Blocks[i].Start++
	}
	s.Calls.Send(&again)
}

// sendTwiceOverlapping has every sender repeat its sends one block
// further on, so that the blocks a node is sent overlap and one of them
// is in no transfer.
func sendTwiceOverlapping(_ int, _ bool, c compiler.Calls) compiler.Calls { return sendTwice{c} }

// lateFrames holds a node's implicit_writable calls back and makes them
// right after its next barrier.
type lateFrames struct {
	compiler.Calls
	held *[][]protocol.BlockRun
}

func (l lateFrames) ImplicitWritable(b []protocol.BlockRun) {
	*l.held = append(*l.held, slices.Clone(b)) // b is the emitter's scratch
}

func (l lateFrames) Barrier() {
	l.Calls.Barrier()
	for _, b := range *l.held {
		l.Calls.ImplicitWritable(b)
	}
	*l.held = nil
}

// openFramesLate moves every implicit_writable behind the node's next
// barrier: the phase its data arrives in.
func openFramesLate() tee {
	var held [][]protocol.BlockRun
	return func(_ int, after bool, c compiler.Calls) compiler.Calls {
		if !after {
			held = nil // a node's frames wait for its own barriers only
		}
		return lateFrames{c, &held}
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
		tee    tee                       // alters the calls on their way to the fold
		mutate func(*analysis.LoopCalls) // alters the folded instance
	}{
		{"clean-read", 0, nil, nil},
		{"clean-write", 1, nil, nil},
		{"drop-ready-to-recv", 0, dropReadyToRecv, nil},
		{"drop-flush-side", 1, dropFlushSide, nil},
		{"drop-implicit-writable", 0, dropImplicitWritable, nil},
		{"drop-last-barrier-of-node-0", 0, dropLastBarrierOfNode0(t, 0), nil},
		{"skip-dead-read", 0, nil, skipDeadRead},
		{"drop-sends", 0, dropSends, nil},
		{"drop-mk-writable", 1, dropMkWritable, nil},
		{"send-twice-overlapping", 0, sendTwiceOverlapping, nil},
		{"open-frames-late", 0, openFramesLate(), nil},
		{"shift-transfer-blocks", 0, nil, shiftTransferBlocks},
	} {
		m, rep, lc := buildFixture(t, f.loop, f.tee)
		if f.mutate != nil {
			f.mutate(lc)
		}
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
